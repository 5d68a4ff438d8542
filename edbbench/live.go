package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/debug"
	"edb/internal/minic"
	"edb/internal/progs"
	"edb/internal/serve/loadgen"
	"edb/internal/trace"
)

// maxWatches bounds the script's watch set below the four monitor
// registers of the hardware strategy, so every strategy can run it.
const maxWatches = 3

// script is one debuggee's seeded debugging session: which symbols it
// may watch, how many mutations it makes and the seed of its decisions.
// It mutates the watch set at every break until its budget is spent,
// then drops every watch and runs to exit; a decision is drawn at every
// break, so sessions whose breaks agree take the same actions.
type script struct {
	program   string
	src       string
	fuel      uint64
	symbols   []string
	seed      int64
	mutations int
	// rewrites: the program is the self-modifying smc, whose handler
	// store the CodePatch strategies retarget in live text.
	rewrites bool
}

// mutationBudget is each debuggee's mutations per session: gcc is the
// debugging session proper; smc is there for its live text rewrites.
// With one smc rewrite in rewriteEvery mutations, rewrites are about 2%
// of the CodePatch sessions' mutations, so live_mutation_p99_us is near
// the median rewrite rather than on the edge between the rewrites and
// the watch-set changes.
var mutationBudget = map[string]int{"gcc": 220, "smc": 40}

const rewriteEvery = 8

// sessionRun is what one scripted session produced.
type sessionRun struct {
	strategy  debug.Strategy
	hitDigest string // breakpoint, range, function and value of every hit, and the output
	output    string
	cycles    uint64
	instret   uint64
	hits      int
	mutations map[string][]float64 // µs per Watch / Unwatch / RewriteStore
	verifyUS  float64
	demoted   int
	flips     int
	rewrote   bool
}

// hotWrites is how often a symbol must be written in one run for the
// script to watch it: colder symbols would end a session's breaks
// before its budget is spent.
const hotWrites = 300

// setupLive prepares the scripts, three times, and returns the median
// set-up time in seconds. Each debuggee's trace — gcc's from the serve
// payload, smc's traced here — gives the data symbols written at least
// hotWrites times; the workload's watchPool of them, drawn from the
// seed, are the ones the script may watch (all of them when watchPool
// is 0).
func setupLive(r *run, seed int64) ([]script, float64, error) {
	names := []string{"gcc", "smc"}
	if r.cfg.tiny {
		names = []string{"smc"}
	}
	var out []script
	var times []float64
	for rep := 0; rep < r.cfg.reps(3); rep++ {
		rng := rand.New(rand.NewSource(seed))
		t := time.Now()
		out = out[:0]
		for _, name := range names {
			p, err := progs.ByName(name, 1)
			if err != nil {
				return nil, 0, err
			}
			img, err := minic.CompileToImage(p.Source)
			if err != nil {
				return nil, 0, fmt.Errorf("compiling %s: %w", name, err)
			}
			var tr *trace.Trace
			if pl, ok := r.payloads[name]; ok {
				tr, err = pl.trace()
			} else {
				tr, err = loadgen.BuildTrace(name, 1)
			}
			if err != nil {
				return nil, 0, fmt.Errorf("tracing %s: %w", name, err)
			}
			hot := hotSymbols(img, tr)
			rng.Shuffle(len(hot), func(i, j int) { hot[i], hot[j] = hot[j], hot[i] })
			if n := r.cfg.workload.watchPool; n > 0 && n < len(hot) {
				hot = hot[:n]
			}
			out = append(out, script{
				program:   name,
				src:       p.Source,
				fuel:      p.Fuel,
				symbols:   hot,
				seed:      rng.Int63(),
				mutations: mutationBudget[name],
				rewrites:  name == "smc",
			})
		}
		times = append(times, time.Since(t).Seconds())
	}
	return out, median(times), nil
}

// hotSymbols lists, in name order, the data symbols of img that the
// trace's writes hit at least hotWrites times.
func hotSymbols(img *asm.Image, tr *trace.Trace) []string {
	type sym struct {
		name   string
		ba, ea arch.Addr
		writes int
	}
	var syms []sym
	for name, r := range img.Data {
		syms = append(syms, sym{name: name, ba: r.BA, ea: r.EA})
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i].ba < syms[j].ba })
	for _, e := range tr.Events {
		if e.Kind != trace.EvWrite {
			continue
		}
		i := sort.Search(len(syms), func(i int) bool { return syms[i].ea > e.BA })
		if i < len(syms) && syms[i].ba <= e.BA {
			syms[i].writes++
		}
	}
	var hot []string
	for _, s := range syms {
		if s.writes >= hotWrites {
			hot = append(hot, s.name)
		}
	}
	sort.Strings(hot)
	return hot
}

// livePass times one pass of every script under every strategy, under
// l's spans when l is not nil. Every pass must repeat the first
// exactly, cycles included.
func livePass(r *run, scripts []script, l *ledger, rep int) (float64, error) {
	runtime.GC()
	t := time.Now()
	var pass [][]sessionRun
	for si := range scripts {
		var runs []sessionRun
		for _, strat := range debug.Strategies {
			sr, err := runSession(r, l, &scripts[si], strat, rep)
			if err != nil {
				return 0, err
			}
			runs = append(runs, sr)
			// The mutation latencies are the re-patching engine's: the
			// other strategies' watch-set changes are a register or
			// page-table write of well under a microsecond.
			if strat == debug.CodePatch || strat == debug.CodePatchOpt {
				for k, v := range sr.mutations {
					r.mutations[k] = append(r.mutations[k], v...)
				}
			}
		}
		pass = append(pass, runs)
	}
	wall := time.Since(t).Seconds()
	if r.livePass0 == nil {
		r.livePass0 = pass
	}
	for si := range pass {
		for k, sr := range pass[si] {
			f := r.livePass0[si][k]
			r.check(sr.hitDigest == f.hitDigest && sr.cycles == f.cycles && sr.instret == f.instret,
				"live %s/%s: pass %d differs from pass 0", scripts[si].program, sr.strategy, rep)
		}
	}
	return wall, nil
}

// liveFinish checks the passes against each other and the unmonitored
// runs, and sets the live metrics. Within a pass, sessions that cannot
// differ must agree: on gcc all five strategies, on smc the three that
// cannot rewrite text and, apart, the two CodePatch ones; sessions that
// do not rewrite must print what the unmonitored program prints. The
// traced run's last pass, number tracedRep, ran under spans.
func liveFinish(r *run, scripts []script, walls []float64, tracedRep int) error {
	first := r.livePass0
	mutations := r.mutations
	// Unmonitored references, and the cross-strategy checks.
	var coptCycles, baseCycles uint64
	for si := range scripts {
		sc := &scripts[si]
		p, err := progs.ByName(sc.program, 1)
		if err != nil {
			return err
		}
		s, err := debug.LaunchWith(sc.src, debug.NativeHardware, debug.LaunchConfig{})
		if err != nil {
			return err
		}
		if err := s.Run(p.Fuel); err != nil {
			return fmt.Errorf("unmonitored %s: %w", sc.program, err)
		}
		cpu := s.Machine.CPU
		pin := r.cfg.pins.Debuggees[sc.program]
		r.check(s.Output() == pin.Output && cpu.Cycles == pin.Cycles && cpu.Instret == pin.Instret,
			"unmonitored %s: output %q cycles %d instret %d, pinned %q %d %d",
			sc.program, s.Output(), cpu.Cycles, cpu.Instret, pin.Output, pin.Cycles, pin.Instret)
		baseCycles += cpu.Cycles
		runs := first[si]
		for _, sr := range runs {
			if sr.strategy == debug.CodePatchOpt {
				coptCycles += sr.cycles
			}
			if !sr.rewrote {
				r.check(sr.output == s.Output(), "live %s/%s: output %q, unmonitored %q",
					sc.program, sr.strategy, sr.output, s.Output())
			}
			peer := runs[0] // hardware
			if sr.rewrote {
				peer = runs[3] // code
			}
			r.check(sr.hitDigest == peer.hitDigest, "live %s/%s: hits differ from %s",
				sc.program, sr.strategy, peer.strategy)
		}
	}

	var all []float64
	for _, v := range mutations {
		all = append(all, v...)
	}
	fmt.Fprintf(r.cfg.log, "edbbench: live: %d mutations, passes %.3f s\n", len(all), walls)
	if !r.cfg.traced {
		r.set("live_session_s", median(walls), "s")
		r.set("live_cpopt_overhead_x", float64(coptCycles)/float64(baseCycles), "x")
		return nil
	}
	// Microsecond timings jitter too much on a shared host to carry an
	// end-to-end bound; the traced run reports them, over all passes.
	r.set("live.debug.mutation_p50_us", quantile(all, 0.50), "us")
	r.set("live.debug.mutation_p99_us", quantile(all, 0.99), "us")
	nodes, err := r.ledger.nodes()
	if err != nil {
		return err
	}
	var launchMS, cpuMS, verify []float64
	var instret, hits uint64
	var demoted, flips int
	for si := range scripts {
		for _, sr := range first[si] {
			group := sessionGroup(scripts[si].program, sr.strategy, tracedRep)
			launchMS = append(launchMS, selfMS(nodes, group, "debug.LaunchWith"))
			cpuMS = append(cpuMS, selfMS(nodes, group, "debug.RunUntilBreak"))
			if sr.verifyUS > 0 {
				verify = append(verify, sr.verifyUS)
			}
			instret += sr.instret
			hits += uint64(sr.hits)
			demoted += sr.demoted
			flips += sr.flips
		}
	}
	var cpuTotal float64
	for _, v := range cpuMS {
		cpuTotal += v
	}
	r.set("live.debug.launch_ms", median(launchMS), "ms")
	r.set("live.cpu.run_ms", cpuTotal, "ms")
	r.set("live.cpu.minstr_per_s", float64(instret)/(cpuTotal/1000)/1e6, "Minstr/s")
	r.set("live.debug.watch_us", median(mutations["watch"]), "us")
	r.set("live.debug.unwatch_us", median(mutations["unwatch"]), "us")
	r.set("live.debug.rewrite_us", median(mutations["rewrite"]), "us")
	r.set("live.codepatch.verify_us", median(verify), "us")
	r.set("live.codepatch.demoted", float64(demoted), "count")
	r.set("live.codepatch.stub_flips", float64(flips), "count")
	r.set("live.cpu.instret", float64(instret), "count")
	r.set("live.wms.hits", float64(hits), "count")
	r.set("live.trace.overhead_ms", (walls[tracedRep]-walls[tracedRep-1])*1000, "ms")
	return nil
}

func sessionGroup(program string, strat debug.Strategy, rep int) string {
	return fmt.Sprintf("live-%s-%s-%d", program, strat, rep)
}

// runSession runs one script under one strategy to exit.
func runSession(r *run, l *ledger, sc *script, strat debug.Strategy, rep int) (sessionRun, error) {
	group := sessionGroup(sc.program, strat, rep)
	root := l.begin("debug.session", span{}, group)
	defer root.end()
	out := sessionRun{strategy: strat, mutations: make(map[string][]float64)}
	rng := rand.New(rand.NewSource(sc.seed))

	sp := l.begin("debug.LaunchWith", root, group)
	s, err := debug.LaunchWith(sc.src, strat, debug.LaunchConfig{})
	sp.end()
	if err != nil {
		return out, fmt.Errorf("launching %s under %s: %w", sc.program, strat, err)
	}
	var active []string
	timed := func(kind string, f func() error) error {
		sp := l.begin("debug."+kind, root, group)
		t := time.Now()
		err := f()
		us := float64(time.Since(t).Nanoseconds()) / 1e3
		sp.end()
		out.mutations[kind] = append(out.mutations[kind], us)
		return err
	}
	watch := func() error {
		var free []string
		for _, sym := range sc.symbols {
			if !contains(active, sym) {
				free = append(free, sym)
			}
		}
		sym := free[rng.Intn(len(free))]
		active = append(active, sym)
		return timed("watch", func() error { _, err := s.Watch(sym); return err })
	}
	unwatch := func() error {
		i := rng.Intn(len(active))
		sym := active[i]
		active = append(active[:i], active[i+1:]...)
		return timed("unwatch", func() error { return s.Unwatch(sym) })
	}
	if err := watch(); err != nil {
		return out, err
	}
	canRewrite := sc.rewrites && s.Engine() != nil
	shift := int32(0) // running retarget of the smc handler store, kept in [0, 32] bytes
	done := 0         // mutations made
	fuel := sc.fuel
	for {
		before := s.Machine.CPU.Instret
		sp := l.begin("debug.RunUntilBreak", root, group)
		_, state, err := s.RunUntilBreak(fuel)
		sp.end()
		fuel -= s.Machine.CPU.Instret - before
		if err != nil {
			return out, fmt.Errorf("%s under %s: %w", sc.program, strat, err)
		}
		if state == debug.Exited {
			break
		}
		if state != debug.Broke {
			return out, fmt.Errorf("%s under %s: %v", sc.program, strat, state)
		}
		// One mutation at every break until the budget is spent; on smc
		// under CodePatch every rewriteEvery-th is a live text rewrite.
		switch a := rng.Intn(4); {
		case done == sc.mutations:
			// Script over: drop every watch and run to exit.
			for _, sym := range active {
				if err := s.Unwatch(sym); err != nil {
					return out, err
				}
			}
			active = nil
		case canRewrite && done%rewriteEvery == rewriteEvery-1:
			delta := int32(4 * (1 + rng.Intn(2)))
			if shift+delta > 32 || (shift-delta >= 0 && rng.Intn(2) == 0) {
				delta = -delta
			}
			shift += delta
			out.rewrote = true
			err = timed("rewrite", func() error { return s.RewriteStore("handler", 2, delta) })
		case len(active) < maxWatches && (a <= 1 || len(active) == 1):
			err = watch()
		default:
			err = unwatch()
		}
		if err != nil {
			return out, fmt.Errorf("%s under %s at mutation %d: %w", sc.program, strat, done, err)
		}
		done++
	}

	if eng := s.Engine(); eng != nil {
		sp := l.begin("codepatch.Verify", root, group)
		t := time.Now()
		vs := eng.Verify()
		out.verifyUS = float64(time.Since(t).Nanoseconds()) / 1e3
		sp.end()
		r.check(len(vs) == 0, "live %s/%s: image fails verification: %v", sc.program, strat, vs)
		out.demoted, out.flips = eng.Stats.Demoted, eng.Stats.StubFlips
	}
	h := sha256.New()
	for _, hit := range s.Hits() {
		fmt.Fprintf(h, "%s|%d|%d|%s|%d\n", hit.Breakpoint, hit.BA, hit.EA, hit.Func, hit.Value)
	}
	out.output = s.Output()
	h.Write([]byte(out.output))
	out.hitDigest = hex.EncodeToString(h.Sum(nil))
	out.cycles = s.Machine.CPU.Cycles
	out.instret = s.Machine.CPU.Instret
	out.hits = len(s.Hits())
	return out, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
