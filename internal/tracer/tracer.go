// Package tracer implements phase 1 of the paper's experiment (Figure
// 1): it observes one run of a debuggee on the simulated machine and
// produces the program event trace of §6 — InstallMonitorEvent /
// RemoveMonitorEvent for every program object any monitor session could
// select, and WriteEvent for every explicit store.
//
// Faithful to the paper:
//
//   - Write monitors for automatic variables are installed and removed
//     on function boundaries.
//   - System calls, the standard library (our kernel services), and
//     implicit writes (register spills, saved RA/FP) do not appear in
//     the trace.
//   - Heap objects keep their identity across realloc.
//   - Each heap object records the functions executing in whose dynamic
//     context it was allocated (for AllHeapInFunc sessions).
//
// Observation is host-side and free: it does not perturb the debuggee's
// cycle clock, so the traced run doubles as the base-time measurement.
package tracer

import (
	"fmt"
	"sort"

	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/isa"
	"edb/internal/kernel"
	"edb/internal/objects"
	"edb/internal/trace"
)

type frame struct {
	funcIdx int // index into image Funcs, -1 if unknown
	fp      arch.Addr
	// installed ranges for this frame's locals, parallel to localIDs.
	// Popped frames keep their backing array for the next push.
	ranges []arch.Range
}

type heapObj struct {
	id objects.ID
	r  arch.Range
}

// Tracer attaches to a machine and records its event trace.
type Tracer struct {
	m   *kernel.Machine
	img *asm.Image
	tr  *trace.Trace
	tab *objects.Table

	// localIDs[funcIdx][localIdx] is the object for that local variable.
	localIDs [][]objects.ID
	// staticInfo and globalInfo hold program-lifetime objects.
	lifetime []lifetimeObj

	// implicit[i] reports whether the store at TextBase + 4i is
	// compiler bookkeeping (the image's ImplicitStores, by text word).
	implicit []bool

	heapByAddr map[arch.Addr]heapObj
	heapSeq    int

	shadow    []frame
	stackFns  []string // function names on the shadow stack, innermost last
	truncated bool

	// Monitor-churn schedule (see Churn): churn[churnNext] fires once
	// writeCount reaches its threshold.
	churn      []churnStep
	churnNext  int
	writeCount uint64

	// sink, when set (RunStreamed), receives every event as it
	// happens instead of t.tr.Events — the tracer never materialises
	// the trace. sinkErr is sticky: the first append failure stops
	// further writes and surfaces when the run ends.
	sink    *trace.Writer
	sinkErr error

	// A materialised run (Run) collects events in fixed-size chunks
	// — full ones in chunks, the open one in cur — and joins them once
	// when the run ends, instead of re-copying one growing slice.
	chunks [][]trace.Event
	cur    []trace.Event
}

// chunkEvents is the capacity of one event chunk of a materialised run.
const chunkEvents = 1 << 16

type lifetimeObj struct {
	sym string
	id  objects.ID
	r   arch.Range
}

// churnStep is one armed ChurnPoint, resolved to a lifetime object.
type churnStep struct {
	at  uint64
	idx int // index into t.lifetime
}

// New attaches a tracer to the machine. It must be called before Run,
// and nothing else may use the machine's observation hooks.
func New(m *kernel.Machine, program string) *Tracer {
	t := &Tracer{
		m:          m,
		img:        m.Image,
		tab:        objects.NewTable(),
		heapByAddr: make(map[arch.Addr]heapObj),
		implicit:   make([]bool, len(m.Image.Text)),
	}
	for a := range t.img.ImplicitStores {
		t.implicit[(a-arch.TextBase)/arch.WordBytes] = true
	}
	t.tr = &trace.Trace{Program: program, Objects: t.tab}

	// Pre-create objects for every local variable of every function.
	t.localIDs = make([][]objects.ID, len(t.img.Funcs))
	staticSet := make(map[string]bool)
	for fi := range t.img.Funcs {
		f := &t.img.Funcs[fi]
		ids := make([]objects.ID, len(f.Locals))
		for li, l := range f.Locals {
			ids[li] = t.tab.Add(objects.Object{
				Kind: objects.KindLocalAuto, Func: f.Name, Name: l.Name,
				SizeBytes: l.SizeWords * arch.WordBytes,
			})
		}
		t.localIDs[fi] = ids
		for _, sym := range f.Statics {
			staticSet[sym] = true
			r := t.img.Data[sym]
			id := t.tab.Add(objects.Object{
				Kind: objects.KindLocalStatic, Func: f.Name, Name: sym,
				SizeBytes: r.Len(),
			})
			t.lifetime = append(t.lifetime, lifetimeObj{sym: sym, id: id, r: r})
		}
	}
	// Globals: every data symbol that is not a function static, in
	// data-segment layout order. Iterating the Data map directly would
	// mint object IDs in a different order on every run (Go randomises
	// map iteration), making traces — and therefore session indices and
	// experiment reports — nondeterministic across runs.
	globals := make([]string, 0, len(t.img.Data))
	for sym := range t.img.Data {
		if !staticSet[sym] {
			globals = append(globals, sym)
		}
	}
	sort.Slice(globals, func(i, j int) bool {
		return t.img.Data[globals[i]].BA < t.img.Data[globals[j]].BA
	})
	for _, sym := range globals {
		r := t.img.Data[sym]
		id := t.tab.Add(objects.Object{
			Kind: objects.KindGlobal, Name: sym, SizeBytes: r.Len(),
		})
		t.lifetime = append(t.lifetime, lifetimeObj{sym: sym, id: id, r: r})
	}

	cpu := m.CPU
	// Label the core's fault-injection site with the program name so
	// chaos plans can target one benchmark's trace run deterministically.
	cpu.FaultKey = program
	cpu.OnStore = t.onStore
	cpu.OnCall = t.onCall
	cpu.OnRet = t.onRet
	m.OnAlloc = t.onAlloc
	m.OnFree = t.onFree
	m.OnRealloc = t.onRealloc
	return t
}

func (t *Tracer) emit(e trace.Event) {
	if t.sink != nil {
		if t.sinkErr == nil {
			t.sinkErr = t.sink.Append(e)
		}
		return
	}
	if len(t.cur) == cap(t.cur) {
		if len(t.cur) > 0 {
			t.chunks = append(t.chunks, t.cur)
		}
		t.cur = make([]trace.Event, 0, chunkEvents)
	}
	t.cur = append(t.cur, e)
}

// events joins the collected chunks into one exactly sized slice.
func (t *Tracer) events() []trace.Event {
	n := len(t.cur)
	for _, c := range t.chunks {
		n += len(c)
	}
	out := make([]trace.Event, 0, n)
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	out = append(out, t.cur...)
	t.chunks, t.cur = nil, nil
	return out
}

// Objects exposes the tracer's object table — callers constructing a
// trace.Writer hand it the same table the streamed events reference.
// The table grows while the program runs (heap allocations mint
// objects), which is why the incremental writer defers its header to
// Close.
func (t *Tracer) Objects() *objects.Table { return t.tab }

func (t *Tracer) onStore(ba, ea, pc arch.Addr) {
	if i := int(pc-arch.TextBase) / arch.WordBytes; i < len(t.implicit) && t.implicit[i] {
		return
	}
	t.emit(trace.Event{Kind: trace.EvWrite, BA: ba, EA: ea, PC: pc})
	t.writeCount++
	for t.churnNext < len(t.churn) && t.churn[t.churnNext].at <= t.writeCount {
		lo := t.lifetime[t.churn[t.churnNext].idx]
		t.emit(trace.Event{Kind: trace.EvRemove, Obj: lo.id, BA: lo.r.BA, EA: lo.r.EA})
		t.emit(trace.Event{Kind: trace.EvInstall, Obj: lo.id, BA: lo.r.BA, EA: lo.r.EA})
		t.churnNext++
	}
}

// ChurnPoint is one step of an opt-in monitor-churn schedule: once
// AfterWrites explicit stores have been traced, the program-lifetime
// monitor for the global or static Sym is removed and immediately
// re-installed in the event stream. This is the trace-level image of a
// live session mutation — a debugger (or an edb-serve tenant) dropping
// and re-adding a watchpoint mid-run — and it keys on the explicit
// store count, the same deterministic clock the re-patch storm uses, so
// two traces of the same program under the same schedule are identical.
type ChurnPoint struct {
	Sym         string
	AfterWrites uint64
}

// Churn arms a monitor-churn schedule. It must be called before Run or
// RunStreamed. Points may arrive in any order; they fire sorted by
// threshold (ties in the given order). The resulting trace stays
// balanced and exclusive — every remove is followed by an install of
// the same object and range — so replay in any engine (sequential,
// sharded, streamed) must agree bit-identically with the unchurned
// session semantics aside from the extra install/remove counts.
func (t *Tracer) Churn(points []ChurnPoint) error {
	byName := make(map[string]int, len(t.lifetime))
	for i, lo := range t.lifetime {
		byName[lo.sym] = i
	}
	steps := make([]churnStep, 0, len(points))
	for _, p := range points {
		idx, ok := byName[p.Sym]
		if !ok {
			return fmt.Errorf("tracer: churn point names unknown lifetime symbol %q", p.Sym)
		}
		if p.AfterWrites == 0 {
			return fmt.Errorf("tracer: churn point for %q has zero threshold", p.Sym)
		}
		steps = append(steps, churnStep{at: p.AfterWrites, idx: idx})
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	t.churn = steps
	t.churnNext = 0
	return nil
}

func (t *Tracer) pushFunc(funcIdx int, fp arch.Addr) {
	if n := len(t.shadow); n < cap(t.shadow) {
		t.shadow = t.shadow[:n+1]
	} else {
		t.shadow = append(t.shadow, frame{})
	}
	fr := &t.shadow[len(t.shadow)-1]
	fr.funcIdx, fr.fp, fr.ranges = funcIdx, fp, fr.ranges[:0]
	if funcIdx >= 0 {
		f := &t.img.Funcs[funcIdx]
		for li, l := range f.Locals {
			base := fp - arch.Addr(l.Offset)
			r := arch.Range{BA: base, EA: base + arch.Addr(l.SizeWords*arch.WordBytes)}
			fr.ranges = append(fr.ranges, r)
			t.emit(trace.Event{Kind: trace.EvInstall, Obj: t.localIDs[funcIdx][li], BA: r.BA, EA: r.EA})
		}
		t.stackFns = append(t.stackFns, f.Name)
	} else {
		t.stackFns = append(t.stackFns, "")
	}
}

func (t *Tracer) onCall(target, pc arch.Addr) {
	funcIdx := t.img.FuncIndexAt(target)
	if funcIdx >= 0 && t.img.Funcs[funcIdx].Entry != target {
		funcIdx = -1
	}
	// At the call instruction, SP has not yet been decremented by the
	// callee's prologue, so the callee's frame pointer will equal the
	// current SP.
	t.pushFunc(funcIdx, arch.Addr(t.m.CPU.Regs[isa.SP]))
}

func (t *Tracer) onRet(pc arch.Addr) {
	if len(t.shadow) == 0 {
		t.truncated = true
		return
	}
	fr := &t.shadow[len(t.shadow)-1]
	t.shadow = t.shadow[:len(t.shadow)-1]
	t.stackFns = t.stackFns[:len(t.stackFns)-1]
	if fr.funcIdx >= 0 {
		for li := len(fr.ranges) - 1; li >= 0; li-- {
			r := fr.ranges[li]
			t.emit(trace.Event{Kind: trace.EvRemove, Obj: t.localIDs[fr.funcIdx][li], BA: r.BA, EA: r.EA})
		}
	}
}

// allocCtx returns the distinct function names currently on the stack,
// outermost first.
func (t *Tracer) allocCtx() []string {
	seen := make(map[string]bool, len(t.stackFns))
	var out []string
	for _, f := range t.stackFns {
		if f == "" || seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}

func (t *Tracer) onAlloc(r arch.Range) {
	t.heapSeq++
	id := t.tab.Add(objects.Object{
		Kind: objects.KindHeap, Name: fmt.Sprintf("heap#%d", t.heapSeq),
		SizeBytes: r.Len(), AllocCtx: t.allocCtx(),
	})
	t.heapByAddr[r.BA] = heapObj{id: id, r: r}
	t.emit(trace.Event{Kind: trace.EvInstall, Obj: id, BA: r.BA, EA: r.EA})
}

func (t *Tracer) onFree(r arch.Range) {
	h, ok := t.heapByAddr[r.BA]
	if !ok {
		return
	}
	delete(t.heapByAddr, r.BA)
	t.emit(trace.Event{Kind: trace.EvRemove, Obj: h.id, BA: h.r.BA, EA: h.r.EA})
}

func (t *Tracer) onRealloc(old, new arch.Range) {
	h, ok := t.heapByAddr[old.BA]
	if !ok {
		return
	}
	if old == new {
		return
	}
	delete(t.heapByAddr, old.BA)
	t.emit(trace.Event{Kind: trace.EvRemove, Obj: h.id, BA: h.r.BA, EA: h.r.EA})
	h.r = new
	t.heapByAddr[new.BA] = h
	t.emit(trace.Event{Kind: trace.EvInstall, Obj: h.id, BA: new.BA, EA: new.EA})
}

// Run executes the traced program to completion and returns the
// finalised trace.
func (t *Tracer) Run(fuel uint64) (*trace.Trace, error) {
	if err := t.run(fuel); err != nil {
		return nil, err
	}
	t.tr.Events = t.events()
	t.tr.BaseCycles = t.m.CPU.Cycles
	t.tr.Instret = t.m.CPU.Instret
	return t.tr, nil
}

// RunStreamed executes the traced program to completion, appending
// every event to w as it happens — the trace is never materialised, so
// peak memory is bounded by w's block buffer however long the run. On
// success w carries the final cycle counters and is ready to Close;
// the caller owns Close (and Discard on failure).
func (t *Tracer) RunStreamed(fuel uint64, w *trace.Writer) error {
	t.sink = w
	defer func() { t.sink = nil }()
	if err := t.run(fuel); err != nil {
		return err
	}
	if t.sinkErr != nil {
		return fmt.Errorf("tracer: streaming trace: %w", t.sinkErr)
	}
	w.SetCounters(t.m.CPU.Cycles, t.m.CPU.Instret)
	return nil
}

// run is the shared body of Run and RunStreamed: emit program-lifetime
// installs, execute, tear down whatever is still live.
func (t *Tracer) run(fuel uint64) error {
	// Program-lifetime monitors: globals and function statics.
	for _, lo := range t.lifetime {
		t.emit(trace.Event{Kind: trace.EvInstall, Obj: lo.id, BA: lo.r.BA, EA: lo.r.EA})
	}
	// The entry function's frame (no OnCall fires for it).
	t.pushFunc(t.img.FuncIndexAt(t.img.Entry), arch.Addr(t.m.CPU.Regs[isa.SP]))

	if err := t.m.Run(fuel); err != nil {
		return err
	}
	if t.truncated {
		return fmt.Errorf("tracer: shadow stack underflow (non-canonical call/return)")
	}

	// Tear down whatever is still live, innermost first.
	for len(t.shadow) > 0 {
		t.onRet(t.m.CPU.PC)
	}
	// Live heap objects go in a fixed order — descending object ID,
	// the innermost allocation first — never in map order, so two
	// traces of one program are byte-identical.
	live := make([]heapObj, 0, len(t.heapByAddr))
	for _, h := range t.heapByAddr {
		live = append(live, h)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id > live[j].id })
	clear(t.heapByAddr)
	for _, h := range live {
		t.emit(trace.Event{Kind: trace.EvRemove, Obj: h.id, BA: h.r.BA, EA: h.r.EA})
	}
	for i := len(t.lifetime) - 1; i >= 0; i-- {
		lo := t.lifetime[i]
		t.emit(trace.Event{Kind: trace.EvRemove, Obj: lo.id, BA: lo.r.BA, EA: lo.r.EA})
	}
	return nil
}

// TraceProgram compiles nothing — it runs an already-loaded machine
// under a fresh tracer. Convenience for the pipeline.
func TraceProgram(m *kernel.Machine, program string, fuel uint64) (*trace.Trace, error) {
	return New(m, program).Run(fuel)
}
