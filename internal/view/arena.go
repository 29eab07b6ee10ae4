package view

import (
	"reflect"
	"strings"

	"chronicledb/internal/aggregate"
)

// arena hands out the memory view entries are made of — entry shells,
// aggregation states, key bytes — from chunks it allocates a run at
// a time, so a new group costs no allocation of its own and pays no
// size-class rounding. Each chunk serves about as many entries as the arena
// has handed out so far, between minChunk and maxChunk (see room): a view of
// a few groups never pays for a full chunk, a large one allocates a few
// objects per thousand groups and strands at most one chunk's tail.
//
// Nothing carved is ever returned one piece at a time. Views are
// insert-only, so a group's key lives as long as the view; a retired shell
// goes to the view's free list, of either store, never back to its chunk
// (see shells); and a paged view carves its keys per block
// (blockMeta.arena), so that evicting the block drops the last reference to
// its chunks and the collector takes them whole.
//
// A nil *arena is the heap: every method allocates the piece on its own, for
// entries the collector must own (see newEntry).
type arena struct {
	n       int // entries handed out or announced (reserve)
	entries []entry
	states  []aggregate.State
	keys    []byte          // ordered-store keys
	strs    strings.Builder // hash-store keys
}

const (
	minChunk = 8
	maxChunk = 256
	// maxChunkBytes is the largest chunk: the allocator's largest small size
	// class.
	maxChunkBytes = 32 << 10
	// allocHeader is what the allocator puts in front of a pointerful object
	// of 512 bytes or more. A chunk of exactly a size class's bytes would be
	// bumped into the next class by it, and lose a sixteenth.
	allocHeader = 8
)

var (
	entrySize = int(reflect.TypeOf(entry{}).Size())
	stateSize = int(reflect.TypeOf(aggregate.State{}).Size())
)

// chunk returns how many entries the next chunk should serve.
func (a *arena) chunk() int { return min(max(a.n, minChunk), maxChunk) }

// room returns the length of the next chunk of a slab whose elements take
// size bytes and whose entries take per of them: what chunk() entries need,
// rounded so that the chunk and its header fill a power-of-two size class.
func (a *arena) room(per, size int) int {
	class := 64
	for want := min(per*a.chunk()*size, maxChunkBytes); class < want; {
		class <<= 1
	}
	return max(per, (class-allocHeader)/size)
}

// reserve announces that n entries are about to be built, so that the first
// chunk of a fresh arena holds them all if a chunk can (a decoded block knows
// its count).
func (a *arena) reserve(n int) { a.n = max(a.n, n) }

func (a *arena) entry() *entry {
	if a == nil {
		return new(entry)
	}
	if len(a.entries) == 0 {
		a.entries = make([]entry, a.room(1, entrySize))
	}
	e := &a.entries[0]
	a.entries = a.entries[1:]
	a.n++
	return e
}

func (a *arena) stateVec(n int) []aggregate.State {
	if n == 0 {
		return nil
	}
	if a == nil {
		return make([]aggregate.State, n)
	}
	if len(a.states) < n {
		a.states = make([]aggregate.State, a.room(n, stateSize))
	}
	s := a.states[:n:n]
	a.states = a.states[n:]
	return s
}

// keyBytes returns a private copy of key.
func (a *arena) keyBytes(key []byte) []byte {
	if a == nil {
		return append([]byte(nil), key...)
	}
	if len(a.keys) < len(key) {
		a.keys = make([]byte, a.room(len(key), 1))
	}
	k := a.keys[:len(key):len(key)]
	a.keys = a.keys[len(key):]
	copy(k, key)
	return k
}

// keyString returns a private copy of key as a string. A strings.Builder is
// the chunk: its String shares the buffer, later writes only append, and a
// buffer it outgrows stays behind for the strings already cut from it.
func (a *arena) keyString(key []byte) string {
	if a == nil {
		return string(key)
	}
	if a.strs.Cap()-a.strs.Len() < len(key) {
		a.strs.Reset()
		a.strs.Grow(a.room(len(key), 1))
	}
	off := a.strs.Len()
	a.strs.Write(key)
	return a.strs.String()[off:]
}
