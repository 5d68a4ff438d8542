package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"edb/internal/fault"
	"edb/internal/obsv"
)

// recordingObserver is a concurrency-safe Observer that records every
// callback for later assertions.
type recordingObserver struct {
	mu        sync.Mutex
	started   map[string]int // "program/phase" -> count
	finished  map[string]int
	replays   int
	events    int64
	benchDone []string
	total     int
	maxDone   int
	errs      int
}

func newRecordingObserver() *recordingObserver {
	return &recordingObserver{started: map[string]int{}, finished: map[string]int{}}
}

func (r *recordingObserver) PhaseStarted(program, phase string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started[program+"/"+phase]++
}

func (r *recordingObserver) PhaseFinished(program, phase string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d < 0 {
		r.errs++ // negative durations are never legal
	}
	r.finished[program+"/"+phase]++
}

func (r *recordingObserver) ReplayProgress(program string, events int64, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replays++
	r.events += events
}

func (r *recordingObserver) BenchmarkFinished(program string, done, total int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.benchDone = append(r.benchDone, program)
	r.total = total
	if done > r.maxDone {
		r.maxDone = done
	}
}

// TestObservedRunDeterminism: results are bit-identical with and
// without observation, at every worker count. This is the acceptance
// criterion that observation never feeds back into the pipeline.
func TestObservedRunDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run determinism sweep")
	}
	programs := []string{"gcc", "bps"}
	ResetCache()
	base, err := Run(Config{Programs: programs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		tr := obsv.NewTracer(0)
		ms := obsv.NewMetrics()
		obs := newRecordingObserver()
		// Cold cache each time so build phases are observed too.
		ResetCache()
		got, err := Run(Config{
			Programs: programs, Workers: workers,
			Tracer: tr, Metrics: ms, Observer: obs,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(base))
		}
		for i := range base {
			sameResults(t, "observed", base[i], got[i])
		}
		if tr.Len() == 0 {
			t.Fatalf("workers=%d: tracer collected no spans", workers)
		}
		if obs.errs != 0 {
			t.Fatalf("workers=%d: observer saw %d negative durations", workers, obs.errs)
		}
	}
}

// TestSpansWellFormed: after an observed run, every StartSpan has been
// ended, durations are non-negative, the expected phase names appear,
// and the Chrome trace export round-trips as JSON.
func TestSpansWellFormed(t *testing.T) {
	tr := obsv.NewTracer(0)
	ResetCache()
	res, err := Run(Config{Programs: []string{"bps"}, Workers: 2, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if open := tr.Open(); open != 0 {
		t.Fatalf("%d spans still open after the run", open)
	}
	want := map[string]bool{
		PhaseBenchmark: false, PhaseBuild: false, PhaseCompile: false,
		PhaseAssemble: false, PhaseTracegen: false, PhaseSummaries: false,
		PhaseMeasure:  false,
		PhaseDiscover: false, PhaseReplay: false, PhaseModel: false,
	}
	for _, r := range tr.Records() {
		if r.Dur < 0 {
			t.Fatalf("negative duration in %q: %d", r.Name, r.Dur)
		}
		if _, ok := want[r.Name]; ok {
			want[r.Name] = true
		}
		if r.Name == PhaseTracegen {
			checkTracegenAttrs(t, r.Attrs, res[0].Instret)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %q span recorded", name)
		}
	}
	// Perfetto loads Chrome trace_event JSON: the export must at least
	// be valid JSON with the right envelope.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not round-trip: %v", err)
	}
	if len(doc.TraceEvents) != tr.Len() {
		t.Fatalf("chrome trace has %d events, tracer %d records", len(doc.TraceEvents), tr.Len())
	}
}

// TestObserverCallbacks: the Observer sees matched started/finished
// pairs, a replay progress feed, and N-of-M completion.
func TestObserverCallbacks(t *testing.T) {
	obs := newRecordingObserver()
	ResetCache()
	if _, err := Run(Config{Programs: []string{"gcc", "bps"}, Workers: 2, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	for key, n := range obs.started {
		if obs.finished[key] != n {
			t.Errorf("phase %s: %d started, %d finished", key, n, obs.finished[key])
		}
	}
	if obs.started["gcc/"+PhaseReplay] == 0 {
		t.Error("no replay phase observed for gcc")
	}
	if obs.replays == 0 || obs.events == 0 {
		t.Errorf("no replay progress observed (replays=%d events=%d)", obs.replays, obs.events)
	}
	if obs.total != 2 || obs.maxDone != 2 || len(obs.benchDone) != 2 {
		t.Errorf("benchmark completion: total=%d maxDone=%d done=%v", obs.total, obs.maxDone, obs.benchDone)
	}
}

// TestCacheMetrics: a cold build is a miss; a repeat run over the warm
// cache is a hit, and both are counted.
func TestCacheMetrics(t *testing.T) {
	ms := obsv.NewMetrics()
	ResetCache()
	cfg := Config{Programs: []string{"bps"}, Workers: 1, Metrics: ms}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	snap := ms.Snapshot()
	if got := snap.Counters[`edb_cache_total{result="miss"}`]; got != 1 {
		t.Errorf("cache misses = %d, want 1", got)
	}
	if got := snap.Counters[`edb_cache_total{result="hit"}`]; got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	if got := snap.Counters[`edb_benchmarks_total{result="ok"}`]; got != 2 {
		t.Errorf("ok benchmarks = %d, want 2", got)
	}
	if h := snap.Histograms[`edb_phase_seconds{phase="`+PhaseReplay+`"}`]; h.Count != 2 {
		t.Errorf("replay histogram count = %d, want 2", h.Count)
	}
}

// TestRetryAndFaultObservation: an injected transient fault absorbed by
// a retry shows up in the metrics, the span events, and nowhere in the
// results.
func TestRetryAndFaultObservation(t *testing.T) {
	plan := fault.NewPlan(42, fault.Rule{
		Site: fault.SiteBuildArtifacts, Key: "bps", Kind: fault.Transient, Times: 1,
	})
	fault.Activate(plan)
	defer fault.Deactivate()
	tr := obsv.NewTracer(0)
	ms := obsv.NewMetrics()
	ResetCache()
	res, err := Run(Config{
		Programs: []string{"bps"}, Workers: 1, Retries: 2,
		RetryBackoff: time.Microsecond, Tracer: tr, Metrics: ms,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("retry did not absorb the fault: %+v", res)
	}
	snap := ms.Snapshot()
	if got := snap.Counters["edb_retries_total"]; got != 1 {
		t.Errorf("retries counted = %d, want 1", got)
	}
	var sawRetry, sawFault bool
	for _, r := range tr.Records() {
		if r.Kind != obsv.KindEvent {
			continue
		}
		switch r.Name {
		case "retry":
			sawRetry = true
		case "fault":
			sawFault = true
		}
	}
	if !sawRetry || !sawFault {
		t.Errorf("events: retry=%v fault=%v, want both", sawRetry, sawFault)
	}
	foundFaultMetric := false
	for name, v := range snap.Counters {
		if name == `edb_faults_fired_total{site="exp.buildArtifacts",kind="transient"}` && v == 1 {
			foundFaultMetric = true
		}
	}
	if !foundFaultMetric {
		t.Errorf("fault counter missing or wrong: %v", snap.Counters)
	}
}

// TestRunContextCancellation: a pre-cancelled context stops the run
// before any benchmark completes.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ResetCache()
	_, err := RunContext(ctx, Config{Programs: []string{"bps"}, Workers: 1})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
}

// TestConfigContextShim: the deprecated Config.Context field is still
// honored by Run (and by RunContext called with a background context).
func TestConfigContextShim(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ResetCache()
	if _, err := Run(Config{Programs: []string{"bps"}, Workers: 1, Context: ctx}); err == nil {
		t.Fatal("Run ignored the deprecated Config.Context")
	}
	if _, err := RunContext(context.Background(), Config{Programs: []string{"bps"}, Workers: 1, Context: ctx}); err == nil {
		t.Fatal("RunContext(Background) ignored the deprecated Config.Context")
	}
	// An explicit live context wins over a cancelled Config.Context…
	// (the explicit argument is the caller's actual scope).
	live, liveCancel := context.WithCancel(context.Background())
	defer liveCancel()
	if _, err := RunContext(live, Config{Programs: []string{"bps"}, Workers: 1, Context: ctx}); err != nil {
		// The shim only applies when ctx == Background; a non-Background
		// live context must not fall back to the cancelled field.
		t.Fatalf("explicit context lost to deprecated field: %v", err)
	}
}

// checkTracegenAttrs: the tracegen span carries the traced core's
// throughput — instret equal to the run's, a positive minstr_per_s, and
// a predecode miss count that is positive (every text word misses once)
// but far below instret (the table hits on every re-execution).
func checkTracegenAttrs(t *testing.T, attrs []obsv.KV, instret uint64) {
	t.Helper()
	got := map[string]string{}
	for _, kv := range attrs {
		got[kv.Key] = kv.Val
	}
	if got["instret"] != strconv.FormatUint(instret, 10) {
		t.Errorf("tracegen instret = %q, want %d", got["instret"], instret)
	}
	if v, err := strconv.ParseFloat(got["minstr_per_s"], 64); err != nil || v <= 0 {
		t.Errorf("tracegen minstr_per_s = %q, want a positive rate", got["minstr_per_s"])
	}
	misses, err := strconv.ParseUint(got["predecode_misses"], 10, 64)
	if err != nil || misses == 0 || misses*100 > instret {
		t.Errorf("tracegen predecode_misses = %q, want in (0, instret/100] (instret %d)", got["predecode_misses"], instret)
	}
}
