// Command edbbench is the repository's benchmark: one process that runs
// a named workload end to end, checks every output it produces, and
// prints one JSON result line with every metric and its unit.
//
// A run has four phases, each named after the user job it stands for:
//
//	cold   the full exp.RunContext pipeline over the five paper
//	       programs at scale 1, Workers 1, artifact cache reset first
//	warm   a seeded sweep of model.Timings profiles over the artifacts
//	       the cold phase left cached (tracegen does no work)
//	serve  an open-loop request mix against a real edb-serve process
//	       on loopback with a fresh store
//	live   scripted debug sessions under all five strategies on gcc
//	       and the self-modifying smc program
//
// Workloads differ in how much their inputs repeat (see workloads.go).
// With -trace 0 the run prints the end-to-end metrics; with -trace 1 it
// drives every layer from this package under obsv spans and prints
// per-layer self times and counts instead, writing the spans out as
// JSONL and Chrome trace_event JSON when it ends.
//
// Usage (from the repository root; run.sh builds this binary and
// edb-serve first):
//
//	bash edbbench/run.sh --workload reuse --seed 1 --seconds 24 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"edb/internal/exp"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	traced   bool
	serveBin string
	// workDir holds the server's store and span files; it is created
	// under the checkout and the store is removed when the run ends.
	workDir string
	pins    pins
	// tiny shrinks every phase to a smoke-test size (tests only).
	tiny bool
	log  io.Writer
}

// run is the state one benchmark run accumulates across its phases.
type run struct {
	cfg     *config
	rng     *rand.Rand
	metrics map[string]metric
	// attempted and failed count checked operations: every cold run,
	// sweep profile, request and debug session is one operation, and a
	// mismatch against its reference counts it failed.
	attempted, failed int
	ledger            *ledger
	// payloads are the serve set-up's uploads; direct holds the
	// artifacts coldTraced built for warmTraced.
	payloads map[string]*payload
	direct   map[string]*directArt
	// warmRef is the first sweep's per-profile digests; livePass0 the
	// first live pass, which later passes must repeat; mutations the
	// CodePatch sessions' mutation latencies in µs, by kind.
	warmRef   []string
	livePass0 [][]sessionRun
	mutations map[string][]float64
	// calibMS are the calibration kernel's times (see calib.go).
	calibMS []float64
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records one checked operation; a false ok fails it and logs why.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(r.cfg.log, "edbbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// reps is how many times a unit of work is repeated: n, or once at
// smoke-test size.
func (c *config) reps(n int) int {
	if c.tiny {
		return 1
	}
	return n
}

// procs is the GOMAXPROCS of this process outside the serve phase,
// whose lanes get one processor each. A Go runtime spread over two
// processors of a shared virtual machine hands collector and scavenger
// work to the other, often idle, virtual CPU, and the time to wake it
// follows the host's load: tracing bps took 316 ms with that CPU idle
// and 224 ms with it busy under GOMAXPROCS=2, and 232 ms either way
// under GOMAXPROCS=1 (2-vCPU Xeon). The cold, warm and live phases run
// on one goroutine anyway. The server keeps the default, one processor
// per CPU, so that it can answer a hit while it replays a miss.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	var (
		name     = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "workload seed: every input is generated from it")
		seconds  = flag.Float64("seconds", 24, "measuring time of one run; the serve phase's open-loop window is half of it")
		traced   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		serveBin = flag.String("serve-bin", "", "path of the edb-serve binary")
		workDir  = flag.String("work-dir", ".bench_build/work", "scratch directory for the server store and span files")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *serveBin == "" {
		fail(fmt.Errorf("-serve-bin is required"))
	}
	p, err := loadPins()
	if err != nil {
		fail(err)
	}
	cfg := &config{
		workload: w,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		serveBin: *serveBin,
		workDir:  *workDir,
		pins:     p,
		log:      os.Stderr,
	}
	res, err := execute(cfg)
	if err != nil {
		fail(err)
	}
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"host": hostFingerprint(), "workload": w.name, "seed": *seed}); err != nil {
		fail(err)
	}
	if err := enc.Encode(res); err != nil {
		fail(err)
	}
	if err := out.Flush(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "edbbench: %v\n", err)
	os.Exit(1)
}

// execute runs one workload: set-up, the four phases, and the checks.
func execute(cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating work dir: %w", err)
	}
	r := &run{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.seed)),
		metrics:   make(map[string]metric),
		direct:    make(map[string]*directArt),
		mutations: make(map[string][]float64),
	}
	if cfg.traced {
		r.ledger = newLedger()
	}
	// Inputs first, from the seed alone, in a fixed order so every
	// phase sees the same draws whatever the others measured.
	coldOrder := r.rng.Perm(len(paperPrograms))
	profiles := sweepProfiles(r.rng, cfg)
	serveRng := rand.New(rand.NewSource(r.rng.Int63()))
	liveSeed := r.rng.Int63()

	names := make([]string, len(coldOrder))
	for i, j := range coldOrder {
		names[i] = paperPrograms[j]
	}

	// The phases take turns, one repetition (a slice of the serve
	// window) each per round, so that a slow stretch of a shared host
	// lands on one sample of each rather than on every sample of one;
	// the warm sweep, the shortest, runs twice a round, before and after
	// the live pass. A cold run leaves the artifact cache filled: the
	// warm sweeps after it, and the first round's serve set-up, use it.
	// A calibration sample follows every phase; the first, untimed,
	// faults the kernel's buffers in.
	var sv *server
	var scripts []script
	var coldW, warmW, liveW []float64
	rounds := cfg.reps(3)
	if cfg.traced {
		rounds = 1
	}
	calibrate()
	for round := 0; round < rounds; round++ {
		w, err := coldRep(r, names)
		if err != nil {
			return nil, err
		}
		coldW = append(coldW, w)
		r.calib()
		if round == 0 {
			var serveSetup, liveSetup float64
			if sv, serveSetup, err = setupServe(r, serveRng); err != nil {
				return nil, err
			}
			defer sv.stop()
			r.payloads = sv.payloads
			if scripts, liveSetup, err = setupLive(r, liveSeed); err != nil {
				return nil, err
			}
			r.set("setup_s", serveSetup+liveSetup, "s")
			r.calib()
		}
		if w, err = warmSweep(r, profiles); err != nil {
			return nil, err
		}
		warmW = append(warmW, w)
		r.calib()
		if w, err = livePass(r, scripts, nil, round); err != nil {
			return nil, err
		}
		liveW = append(liveW, w)
		r.calib()
		if !cfg.tiny {
			if w, err = warmSweep(r, profiles); err != nil {
				return nil, err
			}
			warmW = append(warmW, w)
			r.calib()
		}
		// The serve slice needs no artifacts: drop the cache so that
		// this process's collector has little to scan while the server
		// is under load. The next round's cold run starts from an empty
		// cache anyway.
		exp.ResetCache()
		runtime.GC()
		serveSlice(r, sv, round, rounds)
		r.calib()
	}
	fmt.Fprintf(r.cfg.log, "edbbench: cold runs %.3f s, warm sweeps %.3f s\n", coldW, warmW)
	r.set("cold_run_s", median(coldW), "s")
	r.set("warm_sweep_s", median(warmW), "s")
	if cfg.traced {
		if err := coldTraced(r, names); err != nil {
			return nil, err
		}
		if err := warmTraced(r, profiles); err != nil {
			return nil, err
		}
		w, err := livePass(r, scripts, r.ledger, rounds)
		if err != nil {
			return nil, err
		}
		liveW = append(liveW, w)
		r.direct = nil
	}
	if err := serveFinish(r, sv); err != nil {
		return nil, err
	}
	if err := sv.stop(); err != nil {
		return nil, err
	}
	if err := liveFinish(r, scripts, liveW, rounds); err != nil {
		return nil, err
	}
	if cfg.traced {
		if err := r.ledger.write(cfg.workDir, cfg.workload.name, cfg.seed); err != nil {
			return nil, err
		}
		// Per-layer metrics are named <phase>.<layer>.<what>; the
		// end-to-end ones a traced run measured along the way (its
		// untraced baselines) are not its output.
		for name := range r.metrics {
			if !strings.Contains(name, ".") {
				delete(r.metrics, name)
			}
		}
		r.set("host.calib_ms", median(r.calibMS), "ms")
	} else {
		r.scaleHostTimes()
		// The workload's processes: this one and the server.
		r.set("peak_rss_mb", selfPeakRSSMB()+float64(sv.peakRSSKB)/1024, "MB")
	}
	return &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, nil
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostFingerprint identifies the machine a result was measured on.
func hostFingerprint() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
