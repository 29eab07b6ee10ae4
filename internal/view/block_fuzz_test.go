package view

import (
	"bytes"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/keyenc"
	"chronicledb/internal/value"
)

// fuzzShape matches the minutes_per_acct fixture: SUM + COUNT over int col 1.
var fuzzShape = func() *shape {
	l, err := aggregate.NewLayout([]aggregate.Spec{
		{Func: aggregate.Sum, Col: 1, Name: "total"},
		{Func: aggregate.Count, Col: -1, Name: "n"},
	}, []value.Kind{value.KindInt, value.KindInt})
	if err != nil {
		panic(err)
	}
	return newShape(l)
}()

// sealTestBlock encodes entries the way encodeBlockRun does.
func sealTestBlock(entries []keyed) []byte {
	var body []byte
	for _, ke := range entries {
		body = appendBlockEntry(body, string(ke.key), ke.e, fuzzShape)
	}
	return sealBlock(nil, body, len(entries))
}

func fuzzEntry(acct string, total, n int64) keyed {
	e := newEntry(nil, fuzzShape, nil)
	for i := int64(0); i < n; i++ {
		share := total / n
		if i == 0 {
			share += total % n
		}
		fuzzShape.l.Step(e.group(fuzzShape), value.Tuple{value.Str(acct), value.Int(share)})
	}
	return keyed{keyenc.AppendValue(nil, value.Str(acct)), e}
}

// FuzzBlock: decodeBlock must never panic on arbitrary bytes; payloads it
// accepts must re-encode to the identical payload (lossless round-trip);
// and any torn or bit-flipped variant of a valid payload must be rejected
// by the CRC trailer, never half-applied.
func FuzzBlock(f *testing.F) {
	f.Add(sealTestBlock(nil))
	f.Add(sealTestBlock([]keyed{fuzzEntry("acct0001", 30, 2)}))
	f.Add(sealTestBlock([]keyed{
		fuzzEntry("a", 1, 1),
		fuzzEntry("acct0042", 9000, 7),
		fuzzEntry("zzz", -5, 3),
	}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add(sealTestBlock([]keyed{fuzzEntry("a\x00", 2, 1), fuzzEntry("a\x00b", 3, 1)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decodeBlock(data, 1, fuzzShape)
		if err != nil {
			return
		}
		// Accepted: the payload must round-trip byte-for-byte.
		re := sealTestBlock(entries)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted block does not round-trip:\n in  %x\n out %x", data, re)
		}
		// Torn writes (any truncation) must be rejected.
		for _, cut := range []int{1, 4, len(data) / 2} {
			if cut < len(data) {
				if _, err := decodeBlock(data[:len(data)-cut], 1, fuzzShape); err == nil {
					t.Fatalf("torn block (%d bytes cut) decoded without error", cut)
				}
			}
		}
		// Any single bit flip must fail the CRC.
		if len(data) > 0 {
			flipped := bytes.Clone(data)
			flipped[len(flipped)/2] ^= 0x10
			if _, err := decodeBlock(flipped, 1, fuzzShape); err == nil {
				t.Fatal("bit-flipped block decoded without error")
			}
		}
	})
}

// FuzzBlockedImage: RestoreBlocked must never panic on arbitrary bytes, and an
// image it accepts must leave a block index that starts at -∞ and ascends
// strictly — the order every read and write of a paged view relies on. The
// seeds are the golden full image and an incremental image over it.
func FuzzBlockedImage(f *testing.F) {
	fx := newFixture(f)
	sim := newChainSim()
	src := goldenView(f, fx)
	src.EnablePaging(512, sim.fetch, NewCache(0))
	goldenRows(f, fx, src)
	full, pend, _, _, err := src.CheckpointBlocked(true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full) // the golden image: TestGoldenBlockedImage pins these bytes
	src.CommitBlockRefs("full", 0, pend)
	apply(src, fx.appendCall(f, acctName(3), 1))
	apply(src, fx.appendCall(f, acctName(30)+"x", 1))
	delta, _, _, _, err := src.CheckpointBlocked(false)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(delta)
	f.Add(full[:len(full)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		v := goldenView(t, newFixture(t))
		v.EnablePaging(512, sim.fetch, NewCache(0))
		if v.RestoreBlocked(data, "fuzz", 0) != nil {
			return
		}
		blocks := v.pg.Load().blocks
		if len(blocks) == 0 || blocks[0].lo != nil {
			t.Fatal("an accepted image left the index without a -∞ head")
		}
		for i := 1; i < len(blocks); i++ {
			if cmpBound(blocks[i-1].lo, blocks[i].lo) >= 0 {
				t.Fatalf("an accepted image left blocks %d and %d out of order: %x, %x", i-1, i, blocks[i-1].lo, blocks[i].lo)
			}
		}
	})
}
