package view

import (
	"encoding/hex"
	"os"
	"testing"

	"chronicledb/internal/aggregate"
	"chronicledb/internal/algebra"
)

// The image half of the format pin (the state half is in
// internal/aggregate): the checkpoint images of goldenView over goldenRows
// must restore here, and the same rows must produce the same bytes here.
// Both testdata files were rewritten (GOLDEN_WRITE=1) by the commit that
// made an image entry its stored key instead of a value-encoded tuple — the
// format change itself — and must not change without one.

// goldenView carries every aggregation function over the fixture's calls
// chronicle, so every state encoding appears in the images.
func goldenView(t testing.TB, f *fixture) *View {
	t.Helper()
	return mustNew(t, Def{
		Name:      "golden",
		Expr:      algebra.NewScan(f.calls),
		Mode:      SummarizeGroupBy,
		GroupCols: []int{0},
		Aggs: []aggregate.Spec{
			{Func: aggregate.Sum, Col: 1, Name: "total"},
			{Func: aggregate.Count, Col: -1, Name: "n"},
			{Func: aggregate.Min, Col: 1, Name: "lo"},
			{Func: aggregate.Max, Col: 0, Name: "hi"},
			{Func: aggregate.Avg, Col: 1, Name: "mean"},
			{Func: aggregate.First, Col: 0, Name: "first"},
			{Func: aggregate.Last, Col: 1, Name: "last"},
			{Func: aggregate.Var, Col: 1, Name: "var"},
			{Func: aggregate.Stddev, Col: 1, Name: "sd"},
		},
	})
}

// goldenRows folds 40 groups, a few of them more than once.
func goldenRows(t testing.TB, f *fixture, v *View) {
	t.Helper()
	for i := 0; i < 40; i++ {
		apply(v, f.appendCall(t, acctName(i*7%40), int64(i*13%17-3)))
	}
	for i := 0; i < 12; i++ {
		apply(v, f.appendCall(t, acctName(i*3), int64(100+i)))
	}
}

func goldenFile(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	path := "testdata/" + name
	if os.Getenv("GOLDEN_WRITE") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(string(text[:len(text)-1]))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestGoldenCheckpointImage(t *testing.T) {
	f := newFixture(t)
	v := goldenView(t, f)
	goldenRows(t, f, v)
	img := v.Checkpoint()
	want := goldenFile(t, "golden_checkpoint.hex", img)
	if string(img) != string(want) {
		t.Fatalf("the checkpoint of the golden rows differs from the parent's image")
	}
	r := goldenView(t, newFixture(t))
	if err := r.RestoreCheckpoint(want); err != nil {
		t.Fatalf("restoring the parent's image: %v", err)
	}
	if !sameTuples(r.Rows(), v.Rows()) {
		t.Fatalf("restored rows differ:\n got %v\nwant %v", r.Rows(), v.Rows())
	}
	if again := r.Checkpoint(); string(again) != string(want) {
		t.Fatalf("the restored view checkpoints to different bytes")
	}
}

func TestGoldenBlockedImage(t *testing.T) {
	f := newFixture(t)
	sim := newChainSim()
	v := goldenView(t, f)
	v.EnablePaging(512, sim.fetch, NewCache(0))
	goldenRows(t, f, v)
	img, _, _, total, err := v.CheckpointBlocked(true)
	if err != nil {
		t.Fatal(err)
	}
	if total < 4 {
		t.Fatalf("the golden view cut %d blocks, want several", total)
	}
	want := goldenFile(t, "golden_blocked.hex", img)
	if string(img) != string(want) {
		t.Fatal("the blocked image of the golden rows differs from the golden image")
	}
	// Lazily, into a paged view that faults every block back in from the
	// image; re-cut in full, cold (blocks copied forward) and resident (blocks
	// re-encoded), it writes the same bytes.
	sim.files["golden"] = want
	r := goldenView(t, newFixture(t))
	r.EnablePaging(512, sim.fetch, NewCache(0))
	if err := r.RestoreBlocked(want, "golden", 0); err != nil {
		t.Fatalf("restoring the golden blocked image: %v", err)
	}
	for _, state := range []string{"cold", "resident"} {
		again, _, _, _, err := r.CheckpointBlocked(true)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(want) {
			t.Fatalf("the restored view, %s, cuts different bytes", state)
		}
		if !sameTuples(r.Rows(), v.Rows()) {
			t.Fatalf("restored rows differ:\n got %v\nwant %v", r.Rows(), v.Rows())
		}
	}
}
