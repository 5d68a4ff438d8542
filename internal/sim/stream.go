package sim

// Streaming replay over the columnar trace store (trace format v3).
//
// runStreamed (RunWithOptions with Options.Source set) replays a v3
// trace file block by block, never holding []trace.Event: a single
// decode pass reads the file once, decoding the install/remove columns
// of every block and — the fast path — skipping the *write columns* of
// any block whose written-page summary cannot intersect the pages any
// monitored session lives on. With one shard the decode pass and the
// replay are the same loop; with several, decoded blocks fan out to
// the shard workers through a bounded pipeline (pipeline.go), and each
// worker re-applies the skip test against its own narrower member-page
// set. (Skipping whole blocks would never fire on real workloads:
// locals churn on every call, so every block holds install/remove
// events.)
//
// Why skipping write columns is sound, bit for bit (the full argument
// is DESIGN.md §12; the property suite re-proves it empirically):
//
//   - Monitored state only ever enters a page through an install event
//     with non-empty session membership, and the worker tracks the set
//     of 4 KiB pages spanned by member installs/removes seen so far
//     (memberPages), *including the current block's own*, before
//     deciding — so the set is a superset of every page that holds or
//     will hold an entry while this block's writes execute.
//
//   - A skipped write can't be a monitor hit: a hit needs its word
//     owned by a live member object, which requires a member install
//     covering that word — putting the write's page in memberPages and
//     the block's summary in intersection.
//
//   - A skipped write can't change VMActivePageMiss: per-page write
//     counters (pageTab wtotal) only matter relative to the base
//     snapshot taken when a member entry is created, and interval
//     credit is wtotal − base. Writes to a page before its first
//     member install are absorbed into base; the streaming engine
//     simply never counts them on either side of the subtraction, so
//     the credit is identical.
//
//   - 8 KiB exactness: memberPages also contains the 4 KiB buddy of
//     every member page (pn ^ 1), so a write to the other half of a
//     monitored 8 KiB page is never skipped and its 8 KiB wtotal bump
//     is preserved.
//
// The summary itself is conservative by construction (writer
// summarises the actual write pages; bloom filters only
// over-approximate) and the decoder rejects any CRC-valid summary a
// decoded write escapes, so a false "cannot intersect" is impossible —
// skipping only ever drops writes that provably touch no monitored
// page. The skipped bytes are still read and CRC-verified by
// trace.Stream; only decode and replay work is elided.

import (
	"fmt"
	"time"

	"edb/internal/arch"
	"edb/internal/fault"
	"edb/internal/objects"
	"edb/internal/sessions"
	"edb/internal/trace"
)

// runStreamed is the streamed replay engine behind RunWithOptions: it
// opens the source exactly once and replays block by block through one
// decode pass (runPipeline), skipping write columns of blocks that
// provably cannot touch monitored pages (see the package comment above;
// disable with Options.NoSkip). Shards is clamped to
// [1, len(set.Sessions)].
func runStreamed(src trace.StreamSource, set *sessions.Set, o Options) (*Output, error) {
	s, err := src.Open()
	if err != nil {
		return nil, fmt.Errorf("sim: opening trace stream: %w", err)
	}
	defer s.Close()
	if err := fault.Inject(fault.SiteSimReplay, s.Program); err != nil {
		return nil, fmt.Errorf("sim: replaying %s: %w", s.Program, err)
	}
	n := len(set.Sessions)
	shards := o.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	out := &Output{
		Program:     s.Program,
		BaseCycles:  s.BaseCycles,
		TotalWrites: s.NumWrites,
		PerSession:  make([]Counting, n),
		Set:         set,
	}
	var start time.Time
	if o.Obs != nil {
		sp := o.Obs.StartSpan("replay-stream")
		sp.Attr("program", s.Program)
		sp.Int("sessions", int64(n))
		sp.Int("events", int64(s.NumEvents))
		sp.Int("blocks", int64(s.NumBlocks))
		sp.Int("shards", int64(shards))
		events := s.NumEvents
		start = time.Now()
		defer func() {
			if secs := time.Since(start).Seconds(); secs > 0 {
				sp.Float("events_per_sec", float64(events)/secs)
			}
			sp.End()
		}()
	}
	if n == 0 {
		return out, nil
	}
	if err := runPipeline(s, set, shards, !o.NoSkip, o.Obs, out); err != nil {
		return nil, fmt.Errorf("sim: streaming %s: %w", out.Program, err)
	}
	finishCounters(out.PerSession, out.TotalWrites)
	return out, nil
}

// wordPage is one 4 KiB page of the worker's word-ownership table,
// mirroring the prepass resolution but maintained incrementally and
// only for member objects (non-member ownership can never produce a
// hit for this worker's sessions, so tracking it would be dead work).
type wordPage [wordsPerPage]objects.ID

// streamWorker is the per-worker replay state: the same pageTab
// machinery as the in-memory engines, addressed through a dynamic
// raw-page → dense-index map grown as member pages appear (a streaming
// pass has no prepass remap to lean on).
type streamWorker struct {
	set     *sessions.Set
	lo, hi  int32
	full    bool
	per     []Counting
	pages   [2]pageTab
	pageIdx [2]map[uint32]int32
	words   map[uint32]*wordPage
	// memberPages is the monotone set of 4 KiB pages spanned by member
	// install/remove events seen so far, plus each page's 8 KiB buddy;
	// the skip test intersects block summaries against it. A bitmap
	// over the 20-bit page-number space (128 KiB per worker) makes the
	// once-per-IR-event insert a bit test, and memberList keeps the
	// distinct pages enumerable for the per-block intersection.
	memberBits []uint64
	memberList []uint32

	// Last-written-page cache: consecutive writes overwhelmingly land
	// on the page of the previous write, so replayWrite caches that
	// page's three table lookups. Any member install/remove invalidates
	// it (those are the only events that create wordPages or dense page
	// indices).
	wrCacheOK bool
	wrPN      uint32
	wrWords   *wordPage
	wrPi      [2]int32 // dense index per page size, -1 = absent
}

// markMember adds page pn to the member set (no-op if present).
func (w *streamWorker) markMember(pn uint32) {
	if w.memberBits[pn>>6]&(1<<(pn&63)) == 0 {
		w.memberBits[pn>>6] |= 1 << (pn & 63)
		w.memberList = append(w.memberList, pn)
	}
}

// newStreamWorker builds the replay state for sessions [lo, hi)
// accumulating into per. skip sizes the member-page bitmap; without it
// the worker never consults member pages.
func newStreamWorker(set *sessions.Set, lo, hi int32, per []Counting, skip bool) *streamWorker {
	w := &streamWorker{
		set:     set,
		lo:      lo,
		hi:      hi,
		full:    lo == 0 && hi == int32(len(set.Sessions)),
		per:     per,
		pageIdx: [2]map[uint32]int32{make(map[uint32]int32), make(map[uint32]int32)},
		words:   make(map[uint32]*wordPage),
	}
	for psi := range w.pages {
		w.pages[psi].init(0)
	}
	if skip {
		w.memberBits = make([]uint64, (1<<20)/64) // 20-bit page numbers
	}
	return w
}

// extendMembers grows memberPages with the block's member IR spans.
// Called *before* the skip decision, so mid-block installs are covered.
func (w *streamWorker) extendMembers(blk *trace.Block) {
	for j := range blk.IRObj {
		if len(w.membership(blk.IRObj[j])) == 0 {
			continue
		}
		first, last := arch.PagesSpanned(blk.IRBA[j], blk.IREA[j], arch.PageSize4K)
		for pn := first; pn <= last; pn++ {
			w.markMember(pn)
			w.markMember(pn ^ 1) // 8 KiB buddy
		}
	}
}

// settle closes every open page interval into the worker's counters.
func (w *streamWorker) settle() {
	for psi := range w.pages {
		w.pages[psi].settle(w.per, w.lo, psi)
	}
}

// skips reports whether the block's write columns can be skipped for
// this worker's sessions: it first grows the member-page set with the
// block's own member install/remove spans, then tests the block's
// written-page summary against it. Always false when the worker was
// built without skipping.
func (w *streamWorker) skips(sum *trace.BlockSummary, blk *trace.Block) bool {
	if w.memberBits == nil {
		return false
	}
	w.extendMembers(blk)
	return sum.NWrites > 0 && !w.intersects(sum)
}

func (w *streamWorker) membership(obj objects.ID) []int32 {
	if w.full {
		return w.set.Membership(obj)
	}
	return w.set.MembershipRange(obj, w.lo, w.hi)
}

// intersects reports whether the block summary may cover any member
// page. Iterating memberList (bounded by the pages monitored objects
// ever touch) against the constant-time summary test is cheap; the
// bloom cannot be enumerated in the other direction.
func (w *streamWorker) intersects(sum *trace.BlockSummary) bool {
	for _, pn := range w.memberList {
		if sum.MayContainWritePage(pn) {
			return true
		}
	}
	return false
}

// densePage returns (creating on first touch) the dense page-table
// index for raw page pn of page size psi.
func (w *streamWorker) densePage(psi int, pn uint32) int32 {
	if pi, ok := w.pageIdx[psi][pn]; ok {
		return pi
	}
	t := &w.pages[psi]
	pi := int32(len(t.refs))
	t.refs = append(t.refs, pageRef{})
	w.pageIdx[psi][pn] = pi
	return pi
}

// replayIROnly replays only the block's install/remove events — the
// skip path. Order against the block's (skipped) writes is irrelevant:
// no skipped write touches a page any of these events install onto
// (their pages are in memberPages, which the skip test just cleared).
func (w *streamWorker) replayIROnly(blk *trace.Block) {
	for j := range blk.IRKind {
		w.replayIREvent(blk.IRKind[j], blk.IRObj[j], blk.IRBA[j], blk.IREA[j])
	}
}

// replayBlock replays the block's events in stream order.
func (w *streamWorker) replayBlock(blk *trace.Block) {
	ir, wr := 0, 0
	for i := 0; i < blk.NEvents; i++ {
		if blk.IsWrite[i] {
			w.replayWrite(blk.WrBA[wr])
			wr++
		} else {
			w.replayIREvent(blk.IRKind[ir], blk.IRObj[ir], blk.IRBA[ir], blk.IREA[ir])
			ir++
		}
	}
}

// replayIREvent mirrors replayRange's install/remove arms: identical
// membership lookups, counter bumps, and pageTab calls, so counters
// are bit-identical; only the page addressing (dynamic map instead of
// prepass remap) differs.
func (w *streamWorker) replayIREvent(kind trace.EventKind, obj objects.ID, ba, ea arch.Addr) {
	members := w.membership(obj)
	if len(members) == 0 {
		return
	}
	// This event may create wordPages or dense page indices the cached
	// write lookups would miss.
	w.wrCacheOK = false
	install := kind == trace.EvInstall
	if install {
		for _, sess := range members {
			w.per[sess-w.lo].Installs++
		}
	} else {
		for _, sess := range members {
			w.per[sess-w.lo].Removes++
		}
	}
	for psi, psz := range PageSizes {
		first, last := arch.PagesSpanned(ba, ea, psz)
		for pn := first; pn <= last; pn++ {
			pi := w.densePage(psi, pn)
			if install {
				w.pages[psi].install(pi, members, w.per, w.lo, psi)
			} else {
				w.pages[psi].remove(pi, members, w.per, w.lo, psi)
			}
		}
	}
	// Word-ownership for hit resolution, member objects only. The
	// exclusivity invariant makes ignoring non-members safe: a word
	// owned by a non-member resolves to 0 here instead, and both have
	// empty membership.
	if install {
		for a := ba; a < ea; a += arch.WordBytes {
			pn := uint32(a) >> 12
			pg := w.words[pn]
			if pg == nil {
				pg = &wordPage{}
				w.words[pn] = pg
			}
			pg[(a%4096)/4] = obj
		}
	} else {
		for a := ba; a < ea; a += arch.WordBytes {
			if pg := w.words[uint32(a)>>12]; pg != nil {
				idx := (a % 4096) / 4
				if pg[idx] == obj {
					pg[idx] = 0
				}
			}
		}
	}
}

// replayWrite mirrors replayRange's write arm: resolve the word to a
// (member) owner for hit counting, and bump the written page's
// cumulative counters where entries could exist. Pages absent from
// pageIdx have never held a member entry; skipping their bump is
// exactly the base-absorption the interval credit relies on.
func (w *streamWorker) replayWrite(ba arch.Addr) {
	pn := uint32(ba) >> 12
	if !w.wrCacheOK || pn != w.wrPN {
		w.wrPN = pn
		w.wrWords = w.words[pn]
		w.wrPi = [2]int32{-1, -1}
		if pi, ok := w.pageIdx[0][pn]; ok {
			w.wrPi[0] = pi
		}
		if pi, ok := w.pageIdx[1][pn>>1]; ok {
			w.wrPi[1] = pi
		}
		w.wrCacheOK = true
	}
	if pg := w.wrWords; pg != nil {
		if obj := pg[(ba%4096)/4]; obj != 0 {
			for _, sess := range w.membership(obj) {
				w.per[sess-w.lo].Hits++
			}
		}
	}
	if pi := w.wrPi[0]; pi >= 0 {
		w.pages[0].refs[pi].wtotal++
	}
	if pi := w.wrPi[1]; pi >= 0 {
		w.pages[1].refs[pi].wtotal++
	}
}
