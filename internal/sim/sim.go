// Package sim implements phase 2 of the paper's experiment (Figure 1):
// replaying a program event trace against every discovered monitor
// session simultaneously, producing the per-session counting variables
// the analytical models of §7 consume:
//
//	InstallMonitor_σ, RemoveMonitor_σ   installs/removes in the session
//	MonitorHit_σ                        writes hitting a session monitor
//	MonitorMiss_σ                       all other writes
//	VMProtect_σ / VMUnprotect_σ         0→1 / 1→0 transitions of the
//	                                    per-page active-monitor count
//	VMActivePageMiss_σ                  misses landing on a page holding
//	                                    an active monitor of the session
//
// The simulator relies on the trace's exclusivity invariant — at any
// instant each word belongs to at most one live object
// (trace.ValidateExclusive) — which holds for every tracer-produced
// trace because frames nest and heap blocks are disjoint.
//
// Page-granular statistics are computed for 4 KiB and 8 KiB pages in the
// same pass. A naive per-session replay would cost |sessions| × |trace|;
// this implementation is a single pass over a flat-memory layout built
// by a one-time trace prepass (Prepare):
//
//   - the prepass resolves every write to the object it hits and remaps
//     the touched pages of each page size to dense indexes, so the
//     replay loop indexes flat slices instead of hashing raw page
//     numbers (see Prepass);
//   - object → session membership is the CSR index of sessions.Set —
//     one offset lookup and a shared flat int32 array, no per-object
//     slice headers;
//   - per-page session multisets live in an arena-backed dense table
//     (pageTab) with sorted entries, replacing one heap allocation per
//     live page with a handful of arena growths per replay.
//
// RunWithOptions is the single entry point and reaches two engines.
// In-memory replay (runInMemory) consumes the immutable prepass and
// drives the flat replay core: with one shard on the calling
// goroutine, with K > 1 over K contiguous session-index ranges
// concurrently, each worker owning a disjoint dense counter range (a
// subslice of PerSession) and its own page tables, so no locks are
// needed and the merge is a no-op. Streamed replay (runStreamed,
// stream.go) replays a v3 trace file block by block without
// materialising events. Every path is bit-identical to every other;
// the differential oracle suite (oracle_test.go) re-proves it against
// a naive per-session replay for every shard count.
package sim

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"edb/internal/arch"
	"edb/internal/fault"
	"edb/internal/obsv"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// PageSizes lists the page sizes simulated, in index order.
var PageSizes = [2]int{arch.PageSize4K, arch.PageSize8K}

// PageStats holds the page-granularity counting variables for one page
// size.
type PageStats struct {
	Protects       uint64 // VMProtect_σ
	Unprotects     uint64 // VMUnprotect_σ
	ActivePageMiss uint64 // VMActivePageMiss_σ
}

// Counting is the full counting-variable vector for one session.
type Counting struct {
	Installs uint64
	Removes  uint64
	Hits     uint64
	Misses   uint64
	VM       [2]PageStats // indexed like PageSizes
}

// Output is the phase-2 result for one program.
type Output struct {
	Program     string
	BaseCycles  uint64
	TotalWrites uint64
	// PerSession is parallel to set.Sessions.
	PerSession []Counting
	Set        *sessions.Set
}

// ShardThreshold is the session count below which Run replays on one
// shard: with few sessions the per-shard fan-out overhead (one full
// event-stream scan per worker) outweighs the parallelism.
const ShardThreshold = 64

// Options parameterises a replay beyond the trace and session set.
// The zero value reproduces Run's behaviour exactly. Callers pick
// in-memory vs streamed replay by data, not by function name: pass a
// materialised *trace.Trace to replay in memory, or set Source (with a
// nil trace) to stream a v3 file block by block.
type Options struct {
	// Shards is the worker count, each worker owning a contiguous
	// session-index range. 0 auto-selects: for in-memory replay
	// GOMAXPROCS workers when the host has spare cores and the session
	// population is at least ShardThreshold, one otherwise; for
	// streamed replay one. Values above the session count are clamped.
	Shards int
	// Source selects streamed replay over a v3 trace: the trace
	// argument must be nil, and blocks are decoded once and fanned out
	// to all shards through a bounded pipeline (stream.go). Prepass
	// does not apply to streamed replay.
	Source trace.StreamSource
	// NoSkip disables the streamed engine's block-skip fast path:
	// every block's write columns are decoded and replayed. Results
	// are bit-identical with and without skipping (the differential
	// suite holds the engine to that); NoSkip exists as the oracle's
	// slow half and for measuring the skip win. In-memory replay
	// ignores it.
	NoSkip bool
	// Obs, when non-nil, receives replay-engine spans: the trace
	// prepass (when not supplied via Prepass), one span per shard
	// worker (with its session index range), and an events-per-second
	// attribute on the replay span, so a Perfetto timeline shows the
	// replay fan-out and throughput. Nil disables observation at zero
	// cost; results are bit-identical either way (observation never
	// feeds back).
	Obs *obsv.Tracer
	// Prepass supplies a precomputed trace prepass (Prepare). It must
	// have been built from exactly this trace; replays under different
	// session sets, shard counts, and timing profiles can all share
	// one prepass (internal/exp caches it with the trace). Nil makes
	// the engine compute it on entry.
	Prepass *Prepass
}

// Run replays the trace against the session set: RunWithOptions with
// the zero Options, so the engine fans out across GOMAXPROCS workers
// when the host has spare cores and the session population is at
// least ShardThreshold, and replays on the calling goroutine otherwise.
func Run(tr *trace.Trace, set *sessions.Set) (*Output, error) {
	return RunWithOptions(tr, set, Options{})
}

// RunWithOptions is the replay entry point: in-memory replay of a
// materialised trace (runInMemory) or, with Options.Source set and a
// nil trace, streamed replay of a v3 file (runStreamed). Options also
// carry the shard count, a shareable precomputed prepass and the
// observability sink.
//
// Replay entry is an injection point (fault.SiteSimReplay, keyed by
// program name); with no active chaos plan the check is one atomic
// load per replay, never per event.
func RunWithOptions(tr *trace.Trace, set *sessions.Set, o Options) (*Output, error) {
	if o.Source != nil {
		if tr != nil {
			return nil, fmt.Errorf("sim: both a materialised trace and a stream source supplied")
		}
		if o.Prepass != nil {
			return nil, fmt.Errorf("sim: a prepass cannot drive a streamed replay")
		}
		return runStreamed(o.Source, set, o)
	}
	if tr == nil {
		return nil, fmt.Errorf("sim: nil trace and no stream source")
	}
	return runInMemory(tr, set, o)
}

// ensurePrepass returns pp when supplied (after checking it matches
// the trace) and computes it otherwise, under a replay-prepass span
// when observed.
func ensurePrepass(tr *trace.Trace, pp *Prepass, obs *obsv.Tracer) (*Prepass, error) {
	if pp != nil {
		if pp.Events() != len(tr.Events) {
			return nil, fmt.Errorf("sim: %s: prepass covers %d events, trace has %d (built from a different trace?)",
				tr.Program, pp.Events(), len(tr.Events))
		}
		return pp, nil
	}
	if obs != nil {
		sp := obs.StartSpan("replay-prepass")
		sp.Attr("program", tr.Program)
		sp.Int("events", int64(len(tr.Events)))
		defer sp.End()
	}
	return Prepare(tr)
}

// runInMemory is the in-memory replay engine. With one shard it runs
// the flat replay core on the calling goroutine; with K > 1 it
// partitions the sessions into K contiguous index ranges and replays
// the shared trace once per range concurrently (replayShards). Shards
// is clamped to [1, len(set.Sessions)]; 0 auto-selects as Run
// documents.
func runInMemory(tr *trace.Trace, set *sessions.Set, o Options) (*Output, error) {
	if err := fault.Inject(fault.SiteSimReplay, tr.Program); err != nil {
		return nil, fmt.Errorf("sim: replaying %s: %w", tr.Program, err)
	}
	n := len(set.Sessions)
	shards := o.Shards
	if shards == 0 && n >= ShardThreshold {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	obs := o.Obs
	var start time.Time
	if obs != nil {
		sp := obs.StartSpan("replay-memory")
		sp.Attr("program", tr.Program)
		sp.Int("sessions", int64(n))
		sp.Int("events", int64(len(tr.Events)))
		sp.Int("shards", int64(shards))
		start = time.Now()
		defer func() {
			if secs := time.Since(start).Seconds(); secs > 0 {
				sp.Float("events_per_sec", float64(len(tr.Events))/secs)
			}
			sp.End()
		}()
	}
	pp, err := ensurePrepass(tr, o.Prepass, obs)
	if err != nil {
		return nil, err
	}
	out := &Output{
		Program:     tr.Program,
		BaseCycles:  tr.BaseCycles,
		TotalWrites: pp.TotalWrites,
		PerSession:  make([]Counting, n),
		Set:         set,
	}
	if shards == 1 {
		var pages [2]pageTab
		replayRange(tr, set, pp, 0, int32(n), out.PerSession, &pages)
	} else {
		replayShards(tr, set, pp, shards, obs, out.PerSession)
	}
	finishCounters(out.PerSession, pp.TotalWrites)
	return out, nil
}

// finishCounters derives the counters that fall out of closed-form
// identities rather than per-event work:
//
//   - MonitorMiss_σ = total writes − MonitorHit_σ: the software
//     strategies check *every* write instruction regardless of which
//     monitors are active.
//
//   - VMActivePageMiss_σ: the epoch write counters credit every write
//     on a page to the page's whole population — including the
//     sessions whose monitor the write hit, which the definition
//     excludes. A hit write resolves to a live object (its install has
//     no matching remove yet, or the prepass word table would have
//     been cleared), so every session containing that object holds a
//     positive count on the written page at that instant, for both
//     page sizes: each hit over-credits its sessions by exactly one,
//     and the total correction is MonitorHit_σ. The trace validity
//     invariants (trace.Validate + ValidateExclusive: removes match
//     installs, words are exclusively owned) are what make the
//     argument airtight; the differential oracle suite re-checks the
//     identity against a naive per-write-exclusion replay.
func finishCounters(per []Counting, totalWrites uint64) {
	for i := range per {
		c := &per[i]
		c.Misses = totalWrites - c.Hits
		c.VM[0].ActivePageMiss -= c.Hits
		c.VM[1].ActivePageMiss -= c.Hits
	}
}

// replayShards replays the trace for `shards` contiguous session
// ranges concurrently, one goroutine each. All workers share the
// immutable prepass (write resolution + dense page remap); each keeps
// arena-backed page tables and counters for its own sessions only, so
// the total page-multiset work matches the one-shard replay. Workers
// write into disjoint subslices of per, so no locks are needed and the
// merge is a no-op; each session's counters are accumulated by exactly
// one worker in full trace order, which makes the result bit-identical
// for every shard count. 1 < shards <= len(per).
func replayShards(tr *trace.Trace, set *sessions.Set, pp *Prepass, shards int, obs *obsv.Tracer, per []Counting) {
	n := len(per)
	var wg sync.WaitGroup
	for k := 0; k < shards; k++ {
		// Even split: the first n%shards shards take one extra
		// session. shards <= n, so every range is non-empty.
		lo := int32(k * n / shards)
		hi := int32((k + 1) * n / shards)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if obs != nil {
				sp := obs.StartSpan("replay-shard")
				sp.Attr("program", tr.Program)
				sp.Attr("sessions", strconv.Itoa(int(lo))+".."+strconv.Itoa(int(hi)))
				defer sp.End()
			}
			var pages [2]pageTab
			replayRange(tr, set, pp, lo, hi, per[lo:hi], &pages)
		}()
	}
	wg.Wait()
}

// replayRange is the flat replay core of in-memory replay: it
// replays the full event stream for the sessions in [lo, hi),
// accumulating into per (the PerSession subslice for that range;
// per[0] is session lo) and the caller-owned page tables. pp is the
// immutable trace prepass; the core performs no hashing and no
// per-event allocation — membership lookups are CSR offset arithmetic,
// page lookups dense-slice indexing, and page multisets arena-backed.
//
// Event kinds were validated by Prepare; anything else is skipped.
func replayRange(tr *trace.Trace, set *sessions.Set, pp *Prepass,
	lo, hi int32, per []Counting, pages *[2]pageTab) {
	for psi := range pages {
		pages[psi].init(pp.NumPages[psi])
	}
	full := lo == 0 && hi == int32(len(set.Sessions))
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.EvInstall:
			var members []int32
			if full {
				members = set.Membership(e.Obj)
			} else {
				members = set.MembershipRange(e.Obj, lo, hi)
			}
			if len(members) == 0 {
				continue
			}
			for _, sess := range members {
				per[sess-lo].Installs++
			}
			for psi, psz := range PageSizes {
				first, last := arch.PagesSpanned(e.BA, e.EA, psz)
				base := pp.evPage[psi][i]
				for k := int32(0); k <= int32(last-first); k++ {
					pages[psi].install(base+k, members, per, lo, psi)
				}
			}
		case trace.EvRemove:
			var members []int32
			if full {
				members = set.Membership(e.Obj)
			} else {
				members = set.MembershipRange(e.Obj, lo, hi)
			}
			if len(members) == 0 {
				continue
			}
			for _, sess := range members {
				per[sess-lo].Removes++
			}
			for psi, psz := range PageSizes {
				first, last := arch.PagesSpanned(e.BA, e.EA, psz)
				base := pp.evPage[psi][i]
				for k := int32(0); k <= int32(last-first); k++ {
					pages[psi].remove(base+k, members, per, lo, psi)
				}
			}
		case trace.EvWrite:
			if obj := pp.Resolved[i]; obj != 0 {
				var hitSessions []int32
				if full {
					hitSessions = set.Membership(obj)
				} else {
					hitSessions = set.MembershipRange(obj, lo, hi)
				}
				for _, sess := range hitSessions {
					per[sess-lo].Hits++
				}
			}
			// O(1) active-page accounting: bump the page's cumulative
			// write counter; each session's share is credited as
			// wtotal − base when its active interval closes (pageTab
			// remove/settle). Hit sessions are over-credited by
			// exactly one per hit; finishCounters subtracts Hits to
			// cancel it (see the invariant documented there).
			if pi := pp.evPage[0][i]; pi >= 0 {
				pages[0].refs[pi].wtotal++
			}
			if pi := pp.evPage[1][i]; pi >= 0 {
				pages[1].refs[pi].wtotal++
			}
		}
	}
	for psi := range pages {
		pages[psi].settle(per, lo, psi)
	}
}

// FilterZeroHit returns the indices of sessions with at least one
// monitor hit — the paper discards hitless sessions "under the
// assumption that they are unlikely candidates during debugging".
func (o *Output) FilterZeroHit() []int {
	var keep []int
	for i := range o.PerSession {
		if o.PerSession[i].Hits > 0 {
			keep = append(keep, i)
		}
	}
	return keep
}
