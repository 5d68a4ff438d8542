package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"edb/internal/analysis"
	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/core/codepatch"
	"edb/internal/exp"
	"edb/internal/isa"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/model"
	"edb/internal/obsv"
	"edb/internal/progs"
	"edb/internal/report"
	"edb/internal/sessions"
	"edb/internal/sim"
	"edb/internal/stats"
	"edb/internal/trace"
	"edb/internal/tracer"
)

// coldRep times one full cold experiment run — the artifact cache
// reset, then exp.RunContext over the five paper programs in the seeded
// order at scale 1 with one worker — and checks it against the pinned
// report and per-program counts. It leaves the cache filled.
func coldRep(r *run, names []string) (float64, error) {
	exp.ResetCache()
	runtime.GC()
	t := time.Now()
	res, err := exp.RunContext(context.Background(), exp.Config{Programs: names, Workers: 1})
	wall := time.Since(t).Seconds()
	if err != nil {
		return 0, fmt.Errorf("cold run: %w", err)
	}
	r.checkColdResults(renderReport(res, model.Paper), res)
	return wall, nil
}

// coldTraced drives the same pipeline one layer call at a time, in
// exp's own order, under ledger spans, sets the cold per-layer metrics
// and keeps the artifacts for warmTraced. Two figures tie this copy of
// exp's pipeline to exp itself. The tracing overhead is the traced
// copy's wall time minus an untraced cold exp.RunContext run made just
// before it; the rounds' cold_run_s would not do, as their first run
// also pays this process's start-up (heap growth, first page faults).
// And a cold exp.RunContext under exp's own phase spans must run
// exactly the phases the copy runs, with cold.exp.copy_gap_ms the
// difference of their totals. A copy that drifts from exp thus fails
// the run (a phase added or dropped) or shows in both figures (a
// phase's work changed).
func coldTraced(r *run, names []string) error {
	untraced, err := coldRep(r, names)
	if err != nil {
		return err
	}
	exp.ResetCache()
	runtime.GC()
	et := obsv.NewTracer(1 << 12)
	res, err := exp.RunContext(context.Background(), exp.Config{Programs: names, Workers: 1, Tracer: et})
	if err != nil {
		return fmt.Errorf("cold run: %w", err)
	}
	r.checkColdResults(renderReport(res, model.Paper), res)

	var instret, events, sessionsN, hits uint64
	group := "cold-1"
	l := r.ledger
	runtime.GC()
	root := l.begin("cold.run", span{}, group)
	t := time.Now()
	res = nil
	for _, name := range names {
		p, err := progs.ByName(name, 1)
		if err != nil {
			return err
		}
		ps := l.begin("exp.program", root, group)
		art, err := buildDirect(l, ps, group, p)
		if err != nil {
			return err
		}
		pr, err := analyzeDirect(l, ps, group, art, model.Paper)
		ps.end()
		if err != nil {
			return err
		}
		res = append(res, pr)
		r.direct[name] = art
		instret += art.tr.Instret
		events += uint64(len(art.tr.Events))
		sessionsN += uint64(len(pr.Kept) + pr.Discarded)
		for _, k := range pr.Kept {
			hits += k.Counting.Hits
		}
	}
	sp := l.begin("report.All", root, group)
	rendered := renderReport(res, model.Paper)
	sp.end()
	root.end()
	traced := time.Since(t).Seconds()
	r.checkColdResults(rendered, res)

	nodes, err := r.ledger.nodes()
	if err != nil {
		return err
	}
	for _, m := range []struct{ metric, span string }{
		{"minic.compile_ms", "minic.Compile"},
		{"asm.assemble_ms", "asm.Assemble"},
		{"tracer.run_ms", "tracer.Run"},
		{"sim.prepare_ms", "sim.Prepare"},
		{"trace.blockindex_ms", "trace.BuildBlockIndex"},
		{"analysis.interproc_ms", "analysis.ComputeInterproc"},
		{"codepatch.patch_ms", "codepatch.Patch"},
		{"analysis.plan_ms", "analysis.PlanChecks"},
		{"sessions.discover_ms", "sessions.Discover"},
		{"sim.replay_ms", "sim.RunWithOptions"},
		{"stats.summarize_ms", "stats.Summarize"},
		{"report.render_ms", "report.All"},
	} {
		r.set("cold."+m.metric, selfMS(nodes, group, m.span), "ms")
	}
	r.set("cold.model.estimate_ms", selfMS(nodes, group, "model.Estimate")+selfMS(nodes, group, "model.Breakdown"), "ms")
	other := selfMS(nodes, group, "cold.run") + selfMS(nodes, group, "exp.program") +
		selfMS(nodes, group, "exp.measure") + selfMS(nodes, group, "exp.model")
	r.set("cold.exp.other_ms", other, "ms")
	r.set("cold.trace.overhead_ms", (traced-untraced)*1000, "ms")
	r.set("cold.exp.copy_gap_ms", r.comparePhases("cold", et, nodes, group), "ms")
	tracerS := selfMS(nodes, group, "tracer.Run") / 1000
	r.set("cold.tracer.minstr_per_s", float64(instret)/tracerS/1e6, "Minstr/s")
	r.set("cold.tracer.events_per_s", float64(events)/tracerS, "1/s")
	r.set("cold.sim.replay_events_per_s", float64(events)/(selfMS(nodes, group, "sim.RunWithOptions")/1000), "1/s")
	r.set("cold.cpu.instret", float64(instret), "count")
	r.set("cold.tracer.events", float64(events), "count")
	r.set("cold.sim.sessions", float64(sessionsN), "count")
	r.set("cold.wms.hits", float64(hits), "count")
	return nil
}

// copyPhase maps the spans buildDirect and analyzeDirect open directly
// under a program's span to the exp phase each stands for.
var copyPhase = map[string]string{
	"minic.Compile":             exp.PhaseCompile,
	"asm.Assemble":              exp.PhaseAssemble,
	"tracer.Run":                exp.PhaseTracegen,
	"sim.Prepare":               exp.PhasePrepass,
	"trace.BuildBlockIndex":     exp.PhaseBlockIndex,
	"analysis.ComputeInterproc": exp.PhaseSummaries,
	"exp.measure":               exp.PhaseMeasure,
	"sessions.Discover":         exp.PhaseDiscover,
	"sim.RunWithOptions":        exp.PhaseReplay,
	"exp.model":                 exp.PhaseModel,
}

// comparePhases checks that exp, traced by et, ran exactly the phases
// the ledger's copy ran in group, and returns exp's phase time minus
// the copy's in milliseconds. exp's phase spans are the outermost spans
// carrying a program attribute inside the benchmark and build spans;
// the replay engine's own spans nest inside the replay phase.
func (r *run) comparePhases(phase string, et *obsv.Tracer, nodes map[int64]*node, group string) float64 {
	var spans []obsv.Record
	for _, rec := range et.Records() {
		if rec.Kind != obsv.KindSpan || rec.Name == exp.PhaseBenchmark || rec.Name == exp.PhaseBuild {
			continue
		}
		for _, kv := range rec.Attrs {
			if kv.Key == "program" {
				spans = append(spans, rec)
				break
			}
		}
	}
	expNS := make(map[string]int64)
	for i, s := range spans {
		nested := false
		for j, o := range spans {
			if j != i && o.Start <= s.Start && s.Start+s.Dur <= o.Start+o.Dur && (o.Start != s.Start || o.Dur != s.Dur || j < i) {
				nested = true
				break
			}
		}
		if !nested {
			expNS[s.Name] += s.Dur
		}
	}
	copyNS := make(map[string]int64)
	for _, n := range nodes {
		if p, ok := nodes[n.parent]; ok && n.group == group && p.name == "exp.program" {
			if ph, ok := copyPhase[n.name]; ok {
				copyNS[ph] += n.dur
			}
		}
	}
	var gap int64
	same := len(expNS) == len(copyNS)
	var perPhase []string
	for _, ph := range sortedKeys(expNS) {
		ns := expNS[ph]
		_, ok := copyNS[ph]
		same = same && ok
		gap += ns - copyNS[ph]
		perPhase = append(perPhase, fmt.Sprintf("%s %.1f/%.1f", ph, float64(ns)/1e6, float64(copyNS[ph])/1e6))
	}
	fmt.Fprintf(r.cfg.log, "edbbench: %s phases, exp/copy ms: %s\n", phase, strings.Join(perPhase, ", "))
	for ph, ns := range copyNS {
		if _, ok := expNS[ph]; !ok {
			gap -= ns
		}
	}
	r.check(same, "%s: exp ran phases %v, the benchmark's copy of its pipeline %v", phase, sortedKeys(expNS), sortedKeys(copyNS))
	return float64(gap) / 1e6
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkColdResults checks one cold run: the rendered report against
// its pin, and each program's retired instructions and write count.
func (r *run) checkColdResults(rendered []byte, res []*exp.ProgramResult) {
	sum := sha256.Sum256(rendered)
	r.check(hex.EncodeToString(sum[:]) == r.cfg.pins.ReportSHA256,
		"cold report SHA-256 %x, pinned %s", sum, r.cfg.pins.ReportSHA256)
	for _, pr := range res {
		pin := r.cfg.pins.Programs[pr.Program]
		r.check(pr.Instret == pin.Instret && pr.TotalWrites == pin.Writes,
			"%s: instret %d writes %d, pinned %d and %d", pr.Program, pr.Instret, pr.TotalWrites, pin.Instret, pin.Writes)
	}
}

// renderReport renders every table and figure with the results in
// paper order, whatever order the run used.
func renderReport(res []*exp.ProgramResult, t model.Timings) []byte {
	byName := make(map[string]*exp.ProgramResult, len(res))
	for _, pr := range res {
		byName[pr.Program] = pr
	}
	ordered := make([]*exp.ProgramResult, 0, len(res))
	for _, n := range paperPrograms {
		if pr, ok := byName[n]; ok {
			ordered = append(ordered, pr)
		}
	}
	var b bytes.Buffer
	report.All(&b, ordered, t)
	return b.Bytes()
}

// directArt is one program's compile and trace output, built by
// buildDirect the way exp builds its cached artifacts.
type directArt struct {
	tr                                         *trace.Trace
	pp                                         *sim.Prepass
	storeFraction, expansion, expansionOpt     float64
	eliminated, eliminatedIntra, fast, hoisted int
	elideFrac, fastFrac                        float64
}

// buildDirect mirrors exp's artifact build — compile, assemble,
// tracegen, prepass, block index, interproc, measure — with one span
// per layer call.
func buildDirect(l *ledger, parent span, group string, p progs.Program) (*directArt, error) {
	sp := l.begin("minic.Compile", parent, group)
	prog, err := minic.Compile(p.Source)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", p.Name, err)
	}
	sp = l.begin("asm.Assemble", parent, group)
	img, err := asm.Assemble(prog)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("assembling %s: %w", p.Name, err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		return nil, fmt.Errorf("booting %s: %w", p.Name, err)
	}
	sp = l.begin("tracer.Run", parent, group)
	tr, err := tracer.New(m, p.Name).Run(p.Fuel)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("tracing %s: %w", p.Name, err)
	}
	sp = l.begin("sim.Prepare", parent, group)
	pp, err := sim.Prepare(tr)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("prepass for %s: %w", p.Name, err)
	}
	sp = l.begin("trace.BuildBlockIndex", parent, group)
	tr.BuildBlockIndex(0)
	sp.end()
	a := &directArt{tr: tr, pp: pp}
	stores, total := img.CountStores()
	a.storeFraction = float64(stores) / float64(total)
	sp = l.begin("analysis.ComputeInterproc", parent, group)
	analysis.ComputeInterproc(prog)
	sp.end()

	ms := l.begin("exp.measure", parent, group)
	defer ms.end()
	for _, opt := range []codepatch.PatchOptions{{}, {Optimize: true}} {
		sp = l.begin("minic.Compile", ms, group)
		fresh, err := minic.Compile(p.Source)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", p.Name, err)
		}
		sp = l.begin("codepatch.Patch", ms, group)
		pr, err := codepatch.PatchWithOptions(fresh, opt)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("patching %s: %w", p.Name, err)
		}
		if opt.Optimize {
			a.expansionOpt = pr.Expansion()
		} else {
			a.expansion = pr.Expansion()
		}
	}
	sp = l.begin("analysis.PlanChecks", ms, group)
	plan := analysis.PlanChecks(prog)
	sp.end()
	a.eliminated, a.eliminatedIntra, a.fast, a.hoisted =
		plan.EliminatedChecks, plan.EliminatedIntra, plan.FastChecks, plan.HoistedChecks
	classByAddr := make(map[arch.Addr]analysis.CheckClass)
	layout := asm.LayoutAddrs(prog)
	for fi, f := range prog.Funcs {
		fp := plan.Funcs[f.Name]
		for i, in := range f.Body {
			if in.Pseudo == asm.PNone && in.Op == isa.SW {
				classByAddr[layout[fi][i]] = fp.ClassOf(i)
			}
		}
	}
	var nWrites, nFast, nElide uint64
	for _, e := range tr.Events {
		if e.Kind != trace.EvWrite {
			continue
		}
		nWrites++
		switch classByAddr[e.PC] {
		case analysis.CheckElided:
			nElide++
		case analysis.CheckFast:
			nFast++
		}
	}
	if nWrites > 0 {
		a.elideFrac = float64(nElide) / float64(nWrites)
		a.fastFrac = float64(nFast) / float64(nWrites)
	}
	return a, nil
}

// analyzeDirect mirrors exp's analysis pass — discover, replay, model —
// with one span per layer call. The model loop is split so that
// model.Estimate, model.Breakdown and stats.Summarize each get a span
// of their own; the result is the same ProgramResult exp computes.
func analyzeDirect(l *ledger, parent span, group string, a *directArt, timings model.Timings) (*exp.ProgramResult, error) {
	tr := a.tr
	sp := l.begin("sessions.Discover", parent, group)
	set := sessions.Discover(tr)
	sp.end()
	sp = l.begin("sim.RunWithOptions", parent, group)
	out, err := sim.RunWithOptions(tr, set, sim.Options{Prepass: a.pp})
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("simulating %s: %w", tr.Program, err)
	}
	mp := l.begin("exp.model", parent, group)
	defer mp.end()
	res := &exp.ProgramResult{
		Program:          tr.Program,
		BaseSeconds:      tr.BaseSeconds(),
		BaseCycles:       tr.BaseCycles,
		Instret:          tr.Instret,
		TotalWrites:      out.TotalWrites,
		CPOptElideFrac:   a.elideFrac,
		CPOptFastFrac:    a.fastFrac,
		StoreFraction:    a.storeFraction,
		Expansion:        a.expansion,
		ExpansionOpt:     a.expansionOpt,
		EliminatedChecks: a.eliminated,
		EliminatedIntra:  a.eliminatedIntra,
		FastChecks:       a.fast,
		HoistedChecks:    a.hoisted,
	}
	base := tr.BaseSeconds()
	keep := out.FilterZeroHit()
	res.Discarded = len(set.Sessions) - len(keep)
	for si := range res.BreakdownMean {
		res.BreakdownMean[si] = make(map[string]float64)
	}
	counts := make([]model.Counting, len(keep))
	for k, i := range keep {
		s := &set.Sessions[i]
		c := out.PerSession[i]
		res.SessionCounts[s.Type]++
		counts[k] = model.Counting{
			Installs:       c.Installs,
			Removes:        c.Removes,
			Hits:           c.Hits,
			Misses:         c.Misses,
			Protects:       [2]uint64{c.VM[0].Protects, c.VM[1].Protects},
			Unprotects:     [2]uint64{c.VM[0].Unprotects, c.VM[1].Unprotects},
			ActivePageMiss: [2]uint64{c.VM[0].ActivePageMiss, c.VM[1].ActivePageMiss},
			CPOptElideFrac: a.elideFrac,
			CPOptFastFrac:  a.fastFrac,
		}
		res.Kept = append(res.Kept, exp.SessionOutcome{Session: s, Counting: c})
	}
	sp = l.begin("model.Estimate", mp, group)
	for k := range res.Kept {
		for _, strat := range model.Strategies {
			res.Kept[k].Relative[strat] = model.Estimate(strat, counts[k], timings).Relative(base)
		}
	}
	sp.end()
	sp = l.begin("model.Breakdown", mp, group)
	for k := range res.Kept {
		for _, strat := range model.Strategies {
			for name, frac := range model.BreakdownFractions(model.Breakdown(strat, counts[k], timings)) {
				res.BreakdownMean[strat][name] += frac
			}
		}
	}
	sp.end()
	for k := range res.Kept {
		c := &res.Kept[k].Counting
		res.MeanInstalls += float64(c.Installs)
		res.MeanHits += float64(c.Hits)
		res.MeanMisses += float64(c.Misses)
		for psi := 0; psi < 2; psi++ {
			res.MeanProtects[psi] += float64(c.VM[psi].Protects)
			res.MeanActivePageMiss[psi] += float64(c.VM[psi].ActivePageMiss)
		}
	}
	if n := float64(len(res.Kept)); n > 0 {
		res.MeanInstalls /= n
		res.MeanHits /= n
		res.MeanMisses /= n
		for psi := 0; psi < 2; psi++ {
			res.MeanProtects[psi] /= n
			res.MeanActivePageMiss[psi] /= n
		}
		for si := range res.BreakdownMean {
			for name := range res.BreakdownMean[si] {
				res.BreakdownMean[si][name] /= n
			}
		}
	}
	sp = l.begin("stats.Summarize", mp, group)
	for _, strat := range model.Strategies {
		res.Summaries[strat] = stats.Summarize(res.RelativeSamples(strat))
	}
	sp.end()
	return res, nil
}
