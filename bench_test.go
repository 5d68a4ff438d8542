// Benchmarks regenerating each of the paper's evaluation artifacts.
// Every table and figure of §8 has a corresponding benchmark exercising
// the code path that produces it; ablation benchmarks cover the design
// choices called out in DESIGN.md (the WMS index structure, the
// CodePatch check-memo optimisation, and the live strategies).
//
// Run: go test -bench=. -benchmem
package edb_test

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"edb"
	"edb/internal/asm"
	"edb/internal/calib"
	"edb/internal/core/codepatch"
	"edb/internal/core/wms"
	"edb/internal/exp"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/model"
	"edb/internal/progs"
	"edb/internal/report"
	"edb/internal/sessions"
	"edb/internal/sim"
	"edb/internal/stats"
	"edb/internal/trace"
	"edb/internal/tracer"

	"edb/internal/arch"
)

// Shared fixtures: tracing bps (the smallest benchmark) once.
var (
	fixOnce    sync.Once
	fixTrace   *trace.Trace
	fixSet     *sessions.Set
	fixOut     *sim.Output
	fixResults []*exp.ProgramResult
	fixErr     error
)

func fixtures(b testing.TB) (*trace.Trace, *sessions.Set, *sim.Output) {
	b.Helper()
	fixOnce.Do(func() {
		p, err := progs.ByName("bps", 1)
		if err != nil {
			fixErr = err
			return
		}
		img, err := minic.CompileToImage(p.Source)
		if err != nil {
			fixErr = err
			return
		}
		m, err := kernel.NewMachine(img, arch.PageSize4K)
		if err != nil {
			fixErr = err
			return
		}
		fixTrace, fixErr = tracer.New(m, p.Name).Run(p.Fuel)
		if fixErr != nil {
			return
		}
		fixSet = sessions.Discover(fixTrace)
		fixOut, fixErr = sim.Run(fixTrace, fixSet)
		if fixErr != nil {
			return
		}
		r, err := exp.Analyze(fixTrace, model.Paper)
		if err != nil {
			fixErr = err
			return
		}
		fixResults = []*exp.ProgramResult{r}
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixTrace, fixSet, fixOut
}

// BenchmarkTable1Sessions measures phase 1 + session discovery: the
// inputs to Table 1 (session populations and base execution time).
func BenchmarkTable1Sessions(b *testing.B) {
	p, err := progs.ByName("bps", 1)
	if err != nil {
		b.Fatal(err)
	}
	img, err := minic.CompileToImage(p.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := kernel.NewMachine(img, arch.PageSize4K)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := tracer.New(m, p.Name).Run(p.Fuel)
		if err != nil {
			b.Fatal(err)
		}
		set := sessions.Discover(tr)
		if len(set.Sessions) == 0 {
			b.Fatal("no sessions")
		}
	}
}

// BenchmarkTable2SoftwareLookup measures SoftwareLookup_τ natively: the
// ns/op of this benchmark IS the host's Table 2 entry (Appendix A.5).
func BenchmarkTable2SoftwareLookup(b *testing.B) {
	h := calib.MeasureSoftwareLookup(b.N + 1)
	_ = h
}

// BenchmarkTable2SoftwareUpdate measures SoftwareUpdate_τ natively: one
// op is one install or remove under the Appendix A.5 protocol.
func BenchmarkTable2SoftwareUpdate(b *testing.B) {
	rounds := b.N/200 + 1
	calib.MeasureSoftwareUpdate(rounds)
}

// BenchmarkTable3Counting measures phase 2: the one-pass counting
// simulation that produces Table 3's per-session counting variables.
func BenchmarkTable3Counting(b *testing.B) {
	tr, set, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, set); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events/run")
}

// BenchmarkTable4Overheads measures the analytical-model evaluation and
// statistics behind Table 4.
func BenchmarkTable4Overheads(b *testing.B) {
	tr, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Analyze(tr, model.Paper); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 7-9 render from Table 4's summaries; one benchmark per figure.
func BenchmarkFigure7Render(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		report.Figure7(io.Discard, fixResults)
	}
}

func BenchmarkFigure8Render(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		report.Figure8(io.Discard, fixResults)
	}
}

func BenchmarkFigure9Render(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		report.Figure9(io.Discard, fixResults)
	}
}

// BenchmarkCodeExpansion measures the §8 space analysis: patching every
// store of a benchmark and computing the text expansion.
func BenchmarkCodeExpansion(b *testing.B) {
	p, err := progs.ByName("spice", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := minic.Compile(p.Source)
		if err != nil {
			b.Fatal(err)
		}
		res, err := codepatch.Patch(prog)
		if err != nil {
			b.Fatal(err)
		}
		if res.Expansion() <= 0 {
			b.Fatal("no expansion")
		}
	}
}

// BenchmarkLiveStrategy runs a live monitored debuggee under each WMS
// strategy; the reported sim-cycles/op metric is the strategy's
// simulated cost, the host ns/op its simulation cost.
func BenchmarkLiveStrategy(b *testing.B) {
	src := `
	int watched = 0;
	int main() {
		int i;
		int acc = 0;
		for (i = 0; i < 2000; i = i + 1) {
			acc = (acc * 13 + i) & 0xffff;
			if (i % 50 == 0) { watched = watched + 1; }
		}
		print(watched);
		return 0;
	}`
	for _, strat := range edb.Strategies {
		b.Run(string(strat), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				s, err := edb.Launch(src, strat, 0)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.BreakOnData("watched"); err != nil {
					b.Fatal(err)
				}
				if err := s.Run(10_000_000); err != nil {
					b.Fatal(err)
				}
				cycles = s.Machine.CPU.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles/op")
		})
	}
}

// BenchmarkTracegen measures phase 1 — the simulated CPU running one
// workload under the tracer — for each of the five paper workloads at
// scale 1. Compilation happens once outside the timer; each iteration
// loads a fresh machine and traces the whole run. Besides ns/op and
// allocs/op it reports simulated instructions and trace events per
// host second. It is report-only: no gate reads it.
func BenchmarkTracegen(b *testing.B) {
	for _, p := range progs.All(1) {
		img, err := minic.CompileToImage(p.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			var instret, events uint64
			for i := 0; i < b.N; i++ {
				m, err := kernel.NewMachine(img, arch.PageSize4K)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := tracer.New(m, p.Name).Run(p.Fuel)
				if err != nil {
					b.Fatal(err)
				}
				instret += tr.Instret
				events += uint64(len(tr.Events))
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(instret)/secs, "instr/s")
			b.ReportMetric(float64(events)/secs, "events/s")
		})
	}
}

// BenchmarkSimReplay compares the two phase-2 replay engines on the
// bps trace (the suite's largest session population): the sequential
// one-pass simulator against the session-sharded engine at several
// shard counts. The plain variants recompute the trace prepass per
// replay (a cold standalone run); the -prepassed variants share one
// precomputed prepass across iterations, which is what internal/exp
// pays after caching the prepass with the trace artifact. On a
// multi-core host the sharded engine's wall-clock should drop roughly
// with the shard count until sharding overhead dominates; on one core
// it quantifies the fan-out overhead instead.
func BenchmarkSimReplay(b *testing.B) {
	tr, set, _ := fixtures(b)
	pp, err := sim.Prepare(tr)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Sequential(tr, set); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(set.Sessions)), "sessions")
	})
	b.Run("sequential-prepassed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunWithOptions(tr, set, sim.Options{Shards: 1, Prepass: pp}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(set.Sessions)), "sessions")
	})
	ks := []int{1, 2, 4, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, k := range ks {
		if seen[k] {
			continue
		}
		seen[k] = true
		b.Run(fmt.Sprintf("sharded-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.Sharded(tr, set, k); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(set.Sessions)), "sessions")
		})
		b.Run(fmt.Sprintf("sharded-%d-prepassed", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunWithOptions(tr, set, sim.Options{Shards: k, Prepass: pp}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(set.Sessions)), "sessions")
		})
	}
}

// BenchmarkExpRunPipeline measures the full five-benchmark experiment
// end to end — compile, trace, discover, replay, model — from a cold
// cache, at Workers=1 versus Workers=NumCPU. The ratio of the two
// ns/op figures is the pipeline's parallel speedup on this host.
func BenchmarkExpRunPipeline(b *testing.B) {
	ws := []int{1, runtime.NumCPU()}
	seen := map[int]bool{}
	for _, w := range ws {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exp.ResetCache()
				if _, err := exp.Run(exp.Config{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExpRunCached measures a warm-cache rerun of the full
// experiment: what the REPL or a timing-profile sweep pays once the
// (benchmark, scale) artifacts are cached.
func BenchmarkExpRunCached(b *testing.B) {
	exp.ResetCache()
	if _, err := exp.Run(exp.Config{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(exp.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatsSummarize measures the Table 4 statistics kernel.
func BenchmarkStatsSummarize(b *testing.B) {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64((i * 2654435761) % 1000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Summarize(xs)
	}
}

// BenchmarkTraceCodec measures the binary trace encode/decode rate.
func BenchmarkTraceCodec(b *testing.B) {
	tr, _, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := tr.Write(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events")
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// BenchmarkLoopHoistAblation is the CodePatch check-optimisation
// ablation recorded in BENCH_codepatch_opt.json: the static §9
// optimiser (check elision + loop hoisting, PatchOptions.Optimize)
// against the dynamic check memo (AttachWithOptions), on a hot-loop
// workload with one monitored global, plus the interprocedural
// ablation (cp-opt-intra restricts the planner to single functions; the
// quiet `mix` helper between two watched stores is invisible to it but
// transparent to the call-graph summaries). sim-cycles/op is the
// simulated debuggee cost; sim-checks/op counts executed full/fast
// check calls (elided stores charge nothing).
func BenchmarkLoopHoistAblation(b *testing.B) {
	src := `
	int watched = 0;
	int buffer[256];
	int mix(int a, int b) {
		int t;
		t = a ^ b;
		return t + (a & b);
	}
	int main() {
		int i;
		int s = 0;
		for (i = 0; i < 4000; i = i + 1) {
			buffer[i & 255] = i;
			buffer[0] = s;
			buffer[0] = buffer[0] + i;
			s = s + buffer[(i * 7) & 255];
		}
		watched = s;
		watched = watched + 1;
		s = mix(s, i);
		watched = watched + s;
		print(watched);
		return 0;
	}`
	cases := []struct {
		name      string
		optimize  bool
		memo      bool
		intraproc bool
	}{
		{"cp", false, false, false},
		{"cp-memo", false, true, false},
		{"cp-opt-intra", true, false, true},
		{"cp-opt", true, false, false},
		{"cp-opt-memo", true, true, false},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var cycles, checks, elided uint64
			for i := 0; i < b.N; i++ {
				prog, err := minic.Compile(src)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := codepatch.PatchWithOptions(prog, codepatch.PatchOptions{Optimize: c.optimize, Intraproc: c.intraproc}); err != nil {
					b.Fatal(err)
				}
				img, err := asm.Assemble(prog)
				if err != nil {
					b.Fatal(err)
				}
				m, err := kernel.NewMachine(img, arch.PageSize4K)
				if err != nil {
					b.Fatal(err)
				}
				w, err := codepatch.AttachWithOptions(m, nil, codepatch.Options{Memo: c.memo})
				if err != nil {
					b.Fatal(err)
				}
				g := img.Data["watched"]
				if err := w.InstallMonitor(g.BA, g.EA); err != nil {
					b.Fatal(err)
				}
				if err := m.Run(20_000_000); err != nil {
					b.Fatal(err)
				}
				cycles, checks, elided = m.CPU.Cycles, w.Checks, w.Elided
			}
			b.ReportMetric(float64(cycles), "sim-cycles/op")
			b.ReportMetric(float64(checks), "sim-checks/op")
			b.ReportMetric(float64(elided), "sim-elided/op")
		})
	}
}

// BenchmarkIndexAblation compares the WMS address-mapping structures on
// the Appendix A lookup workload: the paper's page bitmap against the
// sorted-interval and naive baselines.
func BenchmarkIndexAblation(b *testing.B) {
	indexes := map[string]func() wms.Index{
		"pagebitmap": func() wms.Index { return wms.NewPageBitmap() },
		"interval":   func() wms.Index { return wms.NewIntervalIndex() },
		"naive":      func() wms.Index { return wms.NewNaiveIndex() },
	}
	set := calib.WorkingMonitorSet(1)
	for name, mk := range indexes {
		b.Run(name, func(b *testing.B) {
			idx := mk()
			for _, r := range set {
				idx.Install(r.BA, r.EA)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := arch.HeapBase + arch.Addr((i*2654435761)&0x1ffffc)
				idx.Lookup(a, a+4)
			}
		})
	}
}
