package sim

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"edb/internal/fault"
	"edb/internal/obsv"
	"edb/internal/progs"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// v3Source serialises tr as a v3 byte buffer with the given blocking
// and wraps it as a StreamSource.
func v3Source(t testing.TB, tr *trace.Trace, blockEvents int) trace.StreamSource {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteTo(&buf, tr, trace.WriteOptions{Version: 3, BlockEvents: blockEvents}); err != nil {
		t.Fatal(err)
	}
	return trace.BytesSource(buf.Bytes())
}

// randomSubset picks a random subset of the discovered sessions — the
// sparse monitor sets the skip path exists for — rebuilt as a Set over
// the same object universe. Empty subsets are allowed.
func randomSubset(rng *rand.Rand, set *sessions.Set) *sessions.Set {
	var sub []sessions.Session
	for _, s := range set.Sessions {
		if rng.Intn(4) == 0 {
			sub = append(sub, s)
		}
	}
	return sessions.NewSet(sub, set.NumObjects())
}

// TestStreamDifferential is the central property of the streaming
// engine: for random traces × random session subsets, streamed replay
// with block skipping ≡ streamed without skipping ≡ the in-memory
// engine — all counters bit-identical — across block sizes and shard
// counts. The in-memory side is itself pinned to the naive per-session
// oracle by TestOnePassMatchesNaiveOracle, so this transitively anchors
// the whole v3 path to first principles.
func TestStreamDifferential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		tr := checkedTrace(t, seed, 1500)
		full := sessions.Discover(tr)
		rng := rand.New(rand.NewSource(seed * 31))
		sets := []*sessions.Set{full, randomSubset(rng, full), randomSubset(rng, full)}
		for si, set := range sets {
			want, err := RunWithOptions(tr, set, Options{Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			wantHash := canonicalHash(want)
			for _, be := range []int{1, 16, 301, trace.DefaultBlockEvents} {
				src := v3Source(t, tr, be)
				for _, noskip := range []bool{false, true} {
					for _, shards := range shardCounts() {
						got, err := RunWithOptions(nil, set, Options{Source: src, Shards: shards, NoSkip: noskip})
						if err != nil {
							t.Fatalf("seed %d set %d be=%d noskip=%v shards=%d: %v",
								seed, si, be, noskip, shards, err)
						}
						if h := canonicalHash(got); h != wantHash {
							t.Fatalf("seed %d set %d be=%d noskip=%v shards=%d: stream hash %s != in-memory %s",
								seed, si, be, noskip, shards, h, wantHash)
						}
					}
				}
			}
		}
	}
}

// TestStreamBlockSizeInvariance is the metamorphic relation from the
// issue: re-blocking a workload trace (1-event blocks up to 64Ki) must
// not change a single counter, with and without skipping.
func TestStreamBlockSizeInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("traces a benchmark workload; skipped in -short")
	}
	tr := workloadTrace(t, "bps")
	set := sessions.Discover(tr)
	want, err := RunWithOptions(tr, set, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantHash := canonicalHash(want)
	for _, be := range []int{1, 1 << 10, 8192, 1 << 15, 1 << 16} {
		src := v3Source(t, tr, be)
		for _, noskip := range []bool{false, true} {
			got, err := RunWithOptions(nil, set, Options{Source: src, Shards: 4, NoSkip: noskip})
			if err != nil {
				t.Fatalf("be=%d noskip=%v: %v", be, noskip, err)
			}
			if h := canonicalHash(got); h != wantHash {
				t.Fatalf("be=%d noskip=%v: hash %s != %s", be, noskip, h, wantHash)
			}
		}
	}
}

// TestStreamAllWorkloads runs the streamed-vs-in-memory differential
// over every benchmark workload at scale 1 — real traces, full
// discovered session sets, skip on.
func TestStreamAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("traces all five workloads; skipped in -short")
	}
	for _, name := range progs.Names() {
		tr := workloadTrace(t, name)
		set := sessions.Discover(tr)
		want, err := RunWithOptions(tr, set, Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		src := v3Source(t, tr, 0)
		got, err := RunWithOptions(nil, set, Options{Source: src, Shards: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if canonicalHash(got) != canonicalHash(want) {
			t.Fatalf("%s: streamed replay diverged from in-memory", name)
		}
	}
}

// TestStreamSparseSubset forces the skip path to actually fire: a
// one-session monitor set over a workload trace must skip a nonzero
// number of blocks yet stay bit-identical to the in-memory replay.
func TestStreamSparseSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("traces a benchmark workload; skipped in -short")
	}
	tr := workloadTrace(t, "bps")
	full := sessions.Discover(tr)
	var one []sessions.Session
	for _, s := range full.Sessions {
		if s.Type == sessions.OneHeap {
			one = append(one, s)
			break
		}
	}
	if len(one) == 0 {
		t.Fatal("no OneHeap session discovered")
	}
	set := sessions.NewSet(one, full.NumObjects())
	want, err := RunWithOptions(tr, set, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteTo(&buf, tr, trace.WriteOptions{Version: 3, BlockEvents: 1024}); err != nil {
		t.Fatal(err)
	}
	obs := obsv.NewTracer(64)
	got, err := RunWithOptions(nil, set, Options{Source: trace.BytesSource(buf.Bytes()), Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	if skipped := spanAttr(obs, "replay-stream-shard", "skipped_blocks"); skipped == "" || skipped == "0" {
		t.Fatalf("sparse one-session set skipped %q blocks — the fast path never fires", skipped)
	}
	if canonicalHash(got) != canonicalHash(want) {
		t.Fatal("skipping replay diverged from in-memory on sparse set")
	}
}

// TestStreamEmptySet covers the degenerate zero-session replay.
func TestStreamEmptySet(t *testing.T) {
	tr := checkedTrace(t, 1, 400)
	set := sessions.NewSet(nil, sessions.Discover(tr).NumObjects())
	out, err := RunWithOptions(nil, set, Options{Source: v3Source(t, tr, 32), Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.PerSession) != 0 || out.TotalWrites == 0 {
		t.Fatalf("empty-set output: %+v", out)
	}
}

// TestStreamRejectsCorrupt checks decode errors surface through
// streamed replay from any worker.
func TestStreamRejectsCorrupt(t *testing.T) {
	tr := checkedTrace(t, 2, 400)
	var buf bytes.Buffer
	if err := trace.WriteTo(&buf, tr, trace.WriteOptions{Version: 3, BlockEvents: 16}); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0x10
	set := sessions.Discover(tr)
	if _, err := RunWithOptions(nil, set, Options{Source: trace.BytesSource(data), Shards: 3}); err == nil {
		t.Fatal("corrupt stream replayed without error")
	}
	if _, err := RunWithOptions(nil, set, Options{Source: trace.BytesSource(data[:8])}); err == nil {
		t.Fatal("truncated stream replayed without error")
	}
}

// TestStreamObserved pins Options.Obs on streamed replay: observation never feeds
// back (bit-identical counters), and the expected span structure
// appears — the engine span with its events_per_sec attribute and one
// span per shard worker carrying the skipped-block count.
func TestStreamObserved(t *testing.T) {
	tr := checkedTrace(t, 9, 1200)
	set := sessions.Discover(tr)
	quiet, err := RunWithOptions(tr, set, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	obs := obsv.NewTracer(256)
	const k = 2
	got, err := RunWithOptions(nil, set, Options{Source: v3Source(t, tr, 64), Shards: k, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range quiet.PerSession {
		if got.PerSession[i] != quiet.PerSession[i] {
			t.Fatalf("session %d: observed streamed replay diverged: %+v != %+v",
				i, got.PerSession[i], quiet.PerSession[i])
		}
	}
	names := spanNames(obs)
	if names["replay-stream"] != 1 {
		t.Errorf("want 1 replay-stream span, got %v", names)
	}
	if names["replay-stream-shard"] != k {
		t.Errorf("want %d replay-stream-shard spans, got %v", k, names)
	}
	if !spanHasAttr(obs, "replay-stream", "events_per_sec") {
		t.Error("replay-stream span lacks events_per_sec attribute")
	}
	if !spanHasAttr(obs, "replay-stream-shard", "skipped_blocks") {
		t.Error("replay-stream-shard span lacks skipped_blocks attribute")
	}
}

// TestStreamFaultInjection: SiteSimReplay fires on the streamed engine
// exactly like the in-memory ones.
func TestStreamFaultInjection(t *testing.T) {
	tr := checkedTrace(t, 10, 300)
	set := sessions.Discover(tr)
	fault.Activate(fault.NewPlan(0, fault.Rule{
		Site: fault.SiteSimReplay, Kind: fault.Transient, Times: 1,
	}))
	defer fault.Deactivate()
	if _, err := RunWithOptions(nil, set, Options{Source: v3Source(t, tr, 64)}); err == nil {
		t.Fatal("injected replay fault not surfaced")
	}
	if _, err := RunWithOptions(nil, set, Options{Source: v3Source(t, tr, 64)}); err != nil {
		t.Fatalf("fault exhausted but replay still fails: %v", err)
	}
}

// flakySource fails every Open after the first. Before the decode
// pipeline each extra shard worker re-opened the source, so a sharded
// replay over this source failed; now it must succeed with exactly one
// Open no matter the shard count.
type flakySource struct {
	inner trace.StreamSource
	opens int
}

func (f *flakySource) Open() (*trace.Stream, error) {
	f.opens++
	if f.opens > 1 {
		return nil, errors.New("flaky source: re-open refused")
	}
	return f.inner.Open()
}

// TestStreamSingleOpen: a sharded streamed replay opens its source
// exactly once — the shared decode pipeline replaced per-shard
// re-reads — and still matches the in-memory engine bit for bit.
func TestStreamSingleOpen(t *testing.T) {
	tr := checkedTrace(t, 11, 300)
	set := sessions.Discover(tr)
	if len(set.Sessions) < 2 {
		t.Skip("need >=2 sessions for a second worker")
	}
	want, err := Run(tr, set)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 8} {
		src := &flakySource{inner: v3Source(t, tr, 64)}
		got, err := RunWithOptions(nil, set, Options{Source: src, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if src.opens != 1 {
			t.Fatalf("shards=%d: source opened %d times, want 1", shards, src.opens)
		}
		if !reflect.DeepEqual(got.PerSession, want.PerSession) {
			t.Fatalf("shards=%d: pipeline counters diverge from in-memory replay", shards)
		}
	}
}

// TestStreamSpansCoverReplay: streamed replay's worker and decode spans
// cover the work they name, so a timeline shows where the replay spends
// its time. At one and two shards, every replay-stream-shard span and
// the replay-stream-decode span must cover at least half of the
// enclosing replay-stream span, and the observed counters stay
// bit-identical to an unobserved replay.
func TestStreamSpansCoverReplay(t *testing.T) {
	tr := checkedTrace(t, 12, 20000)
	set := sessions.Discover(tr)
	src := v3Source(t, tr, 256)
	quiet, err := RunWithOptions(nil, set, Options{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		obs := obsv.NewTracer(256)
		got, err := RunWithOptions(nil, set, Options{Source: src, Shards: shards, Obs: obs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.PerSession, quiet.PerSession) {
			t.Fatalf("shards=%d: observed streamed replay diverged from the unobserved one", shards)
		}
		var total int64
		var parts []obsv.Record
		for _, r := range obs.Records() {
			switch r.Name {
			case "replay-stream":
				total = r.Dur
			case "replay-stream-shard", "replay-stream-decode":
				parts = append(parts, r)
			}
		}
		if len(parts) != shards+1 {
			t.Fatalf("shards=%d: got %d shard/decode spans, want %d", shards, len(parts), shards+1)
		}
		for _, r := range parts {
			if 2*r.Dur < total {
				t.Errorf("shards=%d: %s span covers %.1f%% of replay-stream (%d of %d ns), want >= 50%%",
					shards, r.Name, 100*float64(r.Dur)/float64(total), r.Dur, total)
			}
		}
	}
}
