// Pipeline observability: the Observer progress-streaming interface
// and the internal obs bundle that fans each phase boundary out to
// the configured sinks (span tracer, metrics registry, observer).
//
// The disabled path is a nil *obs: every helper nil-checks and
// returns, performing no allocation, no clock read, and no atomic —
// so an unobserved exp.Run does exactly the allocation work it did
// before the instrumentation existed (gated by `make obsv-bench`).
// Observation never feeds back into the pipeline, so results are
// bit-identical with observation on or off (TestObservedRunDeterminism).

package exp

import (
	"strconv"
	"sync/atomic"
	"time"

	"edb/internal/cpu"
	"edb/internal/fault"
	"edb/internal/obsv"
)

// Phase names used for spans, metrics labels, and Observer callbacks,
// in pipeline order.
const (
	// PhaseBenchmark is the outer per-benchmark span: everything from
	// claim to result, retries included.
	PhaseBenchmark = "benchmark"
	// PhaseBuild wraps one cold compile+trace artifact build (phase 1).
	PhaseBuild = "build"
	// PhaseCompile is the mini-C compile of the benchmark source.
	PhaseCompile = "compile"
	// PhaseAssemble assembles the compiled program into an image.
	PhaseAssemble = "assemble"
	// PhaseTracegen executes the workload under the tracer (the
	// dominant cost of a cold build).
	PhaseTracegen = "tracegen"
	// PhasePrepass computes the trace's replay prepass (write
	// resolution + dense page remap), cached with the trace so every
	// later replay of the artifact shares it.
	PhasePrepass = "prepass"
	// PhaseBlockIndex computes the trace's v3 block index (per-block
	// page-touch summaries), cached with the artifact so streaming
	// replays share the skip metadata.
	PhaseBlockIndex = "blockindex"
	// PhaseSummaries builds the interprocedural layer (call graph,
	// per-function write summaries, entry facts) cached with the
	// benchmark's artifacts.
	PhaseSummaries = "summaries"
	// PhaseMeasure takes the static code-size and check-plan
	// measurements (CodePatch expansion, CP-opt class fractions).
	PhaseMeasure = "measure"
	// PhaseDiscover is monitor-session discovery over the trace.
	PhaseDiscover = "discover"
	// PhaseReplay is the phase-2 counting replay (per-strategy shard
	// spans appear under it when the sharded engine runs).
	PhaseReplay = "replay"
	// PhaseModel evaluates the §7 analytical models and statistics.
	PhaseModel = "model"
)

// Observer receives live pipeline progress callbacks. Implementations
// must be safe for concurrent use: with Workers > 1 callbacks arrive
// from multiple goroutines. Callbacks must not block — the pipeline
// calls them inline — and must not mutate anything the pipeline
// reads; they exist to stream status (cmd/edb-experiment -progress
// renders them as a stderr status line).
type Observer interface {
	// PhaseStarted fires when a pipeline phase begins for a benchmark.
	PhaseStarted(program, phase string)
	// PhaseFinished fires when the phase completes; err is non-nil if
	// the phase failed (the benchmark may still be retried).
	PhaseFinished(program, phase string, d time.Duration, err error)
	// ReplayProgress fires after each completed replay with the number
	// of trace events replayed and the wall time spent — the feed for
	// a live events/sec readout.
	ReplayProgress(program string, events int64, d time.Duration)
	// BenchmarkFinished fires when a benchmark's pipeline completes
	// (successfully or terminally); done counts finished benchmarks so
	// far and total the configured number ("N of M").
	BenchmarkFinished(program string, done, total int, err error)
}

// obs bundles one run's observation sinks. A nil *obs is the disabled
// path; every method is safe on a nil receiver.
type obs struct {
	tracer   *obsv.Tracer
	metrics  *obsv.Metrics
	observer Observer

	total int
	done  atomic.Int64
}

// newObs builds the bundle, or returns nil — the disabled path — when
// the config carries no sink.
func newObs(c *Config, total int) *obs {
	if c.Tracer == nil && c.Metrics == nil && c.Observer == nil {
		return nil
	}
	return &obs{tracer: c.Tracer, metrics: c.Metrics, observer: c.Observer, total: total}
}

// simObs returns the span tracer for the replay engine (nil when
// disabled).
func (o *obs) simObs() *obsv.Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// phaseSpan tracks one open phase. The zero value (nil obs) is inert.
type phaseSpan struct {
	o       *obs
	program string
	name    string
	span    obsv.Span
	start   time.Time
}

// phase opens a phase: starts the span, stamps the wall clock, and
// notifies the observer. On a nil receiver it returns the inert zero
// phaseSpan without allocating.
func (o *obs) phase(program, name string) phaseSpan {
	if o == nil {
		return phaseSpan{}
	}
	ps := phaseSpan{o: o, program: program, name: name}
	if o.tracer != nil {
		ps.span = o.tracer.StartSpan(name)
		ps.span.Attr("program", program)
	}
	ps.start = time.Now()
	if o.observer != nil {
		o.observer.PhaseStarted(program, name)
	}
	return ps
}

// done closes the phase: ends the span, records the wall-time
// histogram, and notifies the observer.
func (ps *phaseSpan) done(err error) { ps.finish(err, -1, false) }

// doneEvents is done for replay phases: events is the number of trace
// events replayed (feeds the events/sec gauge and ReplayProgress).
func (ps *phaseSpan) doneEvents(err error, events int64) { ps.finish(err, events, true) }

// doneTraced is done for the tracegen phase. events and the traced
// core's throughput — instructions retired, millions per second, and
// predecode misses — annotate the span only: the replay throughput
// metrics and ReplayProgress callback are reserved for actual replay
// phases.
func (ps *phaseSpan) doneTraced(err error, events int64, c *cpu.CPU) {
	if ps.o == nil {
		return
	}
	ps.span.Int("instret", int64(c.Instret))
	if secs := time.Since(ps.start).Seconds(); secs > 0 {
		ps.span.Float("minstr_per_s", float64(c.Instret)/secs/1e6)
	}
	ps.span.Int("predecode_misses", int64(c.DecodeMisses))
	ps.finish(err, events, false)
}

func (ps *phaseSpan) finish(err error, events int64, replay bool) {
	o := ps.o
	if o == nil {
		return
	}
	d := time.Since(ps.start)
	if err != nil {
		ps.span.Attr("error", err.Error())
	}
	if events >= 0 {
		ps.span.Int("events", events)
	}
	ps.span.End()
	if o.metrics != nil {
		o.metrics.Observe(`edb_phase_seconds{phase="`+ps.name+`"}`, d.Seconds())
		if replay && events >= 0 {
			o.metrics.Add("edb_replay_events_total", events)
			if secs := d.Seconds(); secs > 0 {
				o.metrics.Set("edb_replay_events_per_sec", float64(events)/secs)
			}
		}
	}
	if o.observer != nil {
		if replay && events >= 0 {
			o.observer.ReplayProgress(ps.program, events, d)
		}
		o.observer.PhaseFinished(ps.program, ps.name, d, err)
	}
}

// cacheResult records a compile/trace cache hit or miss.
func (o *obs) cacheResult(program string, hit bool) {
	if o == nil {
		return
	}
	result, event := "miss", "cache-miss"
	if hit {
		result, event = "hit", "cache-hit"
	}
	if o.metrics != nil {
		o.metrics.Inc(`edb_cache_total{result="` + result + `"}`)
	}
	if o.tracer != nil {
		o.tracer.Event(event, obsv.KV{Key: "program", Val: program})
	}
}

// retry records one retry of a transiently failed benchmark.
func (o *obs) retry(program string, attempt int, err error) {
	if o == nil {
		return
	}
	if o.metrics != nil {
		o.metrics.Inc("edb_retries_total")
	}
	if o.tracer != nil {
		o.tracer.Event("retry",
			obsv.KV{Key: "program", Val: program},
			obsv.KV{Key: "attempt", Val: strconv.Itoa(attempt)},
			obsv.KV{Key: "error", Val: err.Error()})
	}
}

// workerPanic records a contained worker panic.
func (o *obs) workerPanic(program string) {
	if o == nil {
		return
	}
	if o.metrics != nil {
		o.metrics.Inc("edb_worker_panics_total")
	}
	if o.tracer != nil {
		o.tracer.Event("worker-panic", obsv.KV{Key: "program", Val: program})
	}
}

// faultFired is the fault.SetOnFire hook target: it surfaces chaos
// injections as events and counters while this run is observed.
func (o *obs) faultFired(site fault.Site, key string, kind fault.Kind) {
	if o == nil {
		return
	}
	if o.metrics != nil {
		o.metrics.Inc(`edb_faults_fired_total{site="` + string(site) + `",kind="` + kind.String() + `"}`)
	}
	if o.tracer != nil {
		o.tracer.Event("fault",
			obsv.KV{Key: "site", Val: string(site)},
			obsv.KV{Key: "key", Val: key},
			obsv.KV{Key: "kind", Val: kind.String()})
	}
}

// benchmarkDone records a benchmark's terminal outcome and streams the
// N-of-M progress callback.
func (o *obs) benchmarkDone(program string, err error) {
	if o == nil {
		return
	}
	done := int(o.done.Add(1))
	if o.metrics != nil {
		result := "ok"
		if err != nil {
			result = "err"
		}
		o.metrics.Inc(`edb_benchmarks_total{result="` + result + `"}`)
	}
	if o.observer != nil {
		o.observer.BenchmarkFinished(program, done, o.total, err)
	}
}
