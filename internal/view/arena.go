package view

import (
	"reflect"
	"unsafe"
)

// arena hands out the memory view entries are made of — shells, a group's
// words and string slots (see shape) — from chunks it allocates a run at a
// time, so a new group costs no allocation of its own
// and pays no size-class rounding. Each chunk serves about as many entries
// as the arena has handed out so far, between minChunk and maxChunk (see
// room): a view of a few groups never pays for a full chunk, a large one
// allocates a few objects per thousand groups and strands at most one
// chunk's tail.
//
// Nothing carved is ever returned one piece at a time: a retired shell goes
// to the view's free list, never back to its chunk (see shells). A paged view
// carves nothing, so that evicting a block leaves the collector its entries.
//
// A nil *arena is the heap: every method allocates the piece on its own, for
// entries the collector must own (see newEntry).
type arena struct {
	n int // entries handed out or announced (reserve)
	// slab holds shells of one shape — an arena serves one view — used of
	// them handed out, size in all.
	slab       unsafe.Pointer
	used, size int
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

// chunk returns how many entries the next chunk should serve.
func (a *arena) chunk() int { return min(max(a.n, minChunk), maxChunk) }

// room returns how many shells of size bytes the next chunk holds: what
// chunk() entries need, rounded so that the chunk and its header fill a
// power-of-two size class.
func (a *arena) room(size int) int {
	class := 64
	for want := min(a.chunk()*size, maxChunkBytes); class < want; {
		class <<= 1
	}
	return max(1, (class-allocHeader)/size)
}

// reserve announces that n entries are about to be built, so that the first
// chunk of a fresh arena holds them all if a chunk can (a decoded block knows
// its count).
func (a *arena) reserve(n int) { a.n = max(a.n, n) }

// shell returns a zeroed shell of shape sh: the empty group.
func (a *arena) shell(sh *shape) *entry {
	if a == nil {
		return (*entry)(reflect.New(sh.typ).UnsafePointer())
	}
	if a.used == a.size {
		a.size = a.room(sh.bytes)
		a.slab = reflect.MakeSlice(reflect.SliceOf(sh.typ), a.size, a.size).UnsafePointer()
		a.used = 0
	}
	e := (*entry)(unsafe.Add(a.slab, a.used*sh.bytes))
	a.used++
	a.n++
	return e
}
