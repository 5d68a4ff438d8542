package exp

import (
	"bytes"
	"reflect"
	"testing"

	"edb/internal/progs"
	"edb/internal/trace"
)

// TestCachedBlockIndex: the (benchmark, scale) artifact carries the
// trace's v3 block index, built once per cold pipeline and shared by
// every later request — and the cached summaries are byte-for-byte the
// ones the v3 writer serialises for the same blocking.
func TestCachedBlockIndex(t *testing.T) {
	ResetCache()
	p, err := progs.ByName(progs.Names()[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	start := builds.Load()
	art, err := cachedArtifacts(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if art.bidx == nil {
		t.Fatal("cached artifacts carry no block index")
	}
	if art.bidx.BlockEvents != trace.DefaultBlockEvents {
		t.Fatalf("block index uses %d events/block, want default %d",
			art.bidx.BlockEvents, trace.DefaultBlockEvents)
	}
	wantBlocks := (len(art.tr.Events) + trace.DefaultBlockEvents - 1) / trace.DefaultBlockEvents
	if art.bidx.NumBlocks() != wantBlocks {
		t.Fatalf("index has %d blocks for %d events, want %d",
			art.bidx.NumBlocks(), len(art.tr.Events), wantBlocks)
	}

	// A second request shares the same index (no rebuild, same pointer).
	art2, err := cachedArtifacts(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if art2.bidx != art.bidx {
		t.Error("second request rebuilt the block index")
	}
	if got := builds.Load() - start; got != 1 {
		t.Errorf("%d cold builds for two requests, want 1", got)
	}

	// The cached summaries must be the ones a version-3 WriteTo emits.
	var buf bytes.Buffer
	if err := trace.WriteTo(&buf, art.tr, trace.WriteOptions{Version: 3}); err != nil {
		t.Fatal(err)
	}
	s, err := trace.OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; s.Next(); i++ {
		if !reflect.DeepEqual(*s.Summary(), art.bidx.Blocks[i]) {
			t.Fatalf("block %d: cached summary diverges from the serialised one", i)
		}
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}
