package main

import (
	_ "embed" // pins.json
	"encoding/json"
	"fmt"
	"math/rand"

	"edb/internal/model"
)

// workload is one set of inputs. Both workloads run all four phases;
// they differ in how much their monitor sets change, which is what the
// re-patching engine and the session-mutation path are sensitive to.
// The cold
// and warm phases draw only program order and timing profiles from the
// seed, so they measure the same work on both. BENCHMARK.json says why
// each workload was chosen.
type workload struct {
	name string

	// Serve mix, offered open loop: hash-only store hits at hitRate and
	// misses at missRate, each kind evenly spaced. Of the misses,
	// gccShare are gcc uploads (spooled decode, streamed replay) and
	// mutShare POST /v1/session mutations; the rest are full uploads of
	// the four smaller traces with new specs.
	hitRate, missRate float64
	mutShare          float64
	// watchPool is how many of a debuggee's hot symbols the live script
	// watches and unwatches in turn (0: all of them).
	watchPool int
}

// gccShare of the misses are gcc uploads: four in a 12 s window, so the
// spooled path is sampled in every run without setting the miss median.
const gccShare = 0.15

// Both workloads offer misses at 2.5/s, one every 400 ms. A miss takes
// a median 105–135 ms of server time on a 2-vCPU host, a gcc upload
// 180–200 ms, so the miss stream is about a third busy and a miss
// finishes before the next is due even when a slow stretch of a shared
// host adds half: no queue amplifies the host's speed.
//
// Both workloads send 120 hits/s beside the misses, so 98% of their
// requests repeat a stored spec. At that rate the hit lane never idles:
// at 2 hits/s, a hit half a second after the lane's last request
// waited for the host to wake the idle processes (1.3–3.0 ms of latency
// for 0.3 ms of server time on the reference host, varying with the
// host's load), and the hit median of one run spread by 0.12–0.34 over
// ten. What differs is how much the monitor sets churn: reuse's misses
// are 12% session mutations and its debug script cycles through four
// symbols; churn's misses are 28% mutations, re-patching stored specs,
// and its script roams over every hot symbol, so the re-patcher keeps
// covering new ranges.
var workloads = []workload{
	{name: "reuse", hitRate: 120, missRate: 2.5, mutShare: 0.12, watchPool: 4},
	{name: "churn", hitRate: 120, missRate: 2.5, mutShare: 0.28, watchPool: 0},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// paperPrograms are the cold and warm phases' programs, in paper order.
var paperPrograms = []string{"gcc", "ctex", "spice", "qcd", "bps"}

// sweepProfiles draws the warm phase's timing profiles: Table 2 first
// (its rendered report is pinned), then perturbations of every Table 2
// entry by a factor in [0.5, 1.5).
func sweepProfiles(rng *rand.Rand, cfg *config) []model.Timings {
	n := 4
	if cfg.tiny {
		n = 2
	}
	out := []model.Timings{model.Paper}
	for len(out) < n {
		f := func(v float64) float64 { return v * (0.5 + rng.Float64()) }
		p := model.Paper
		out = append(out, model.Timings{
			SoftwareUpdate: f(p.SoftwareUpdate),
			SoftwareLookup: f(p.SoftwareLookup),
			NHFaultHandler: f(p.NHFaultHandler),
			VMFaultHandler: f(p.VMFaultHandler),
			VMProtect:      f(p.VMProtect),
			VMUnprotect:    f(p.VMUnprotect),
			TPFaultHandler: f(p.TPFaultHandler),
		})
	}
	return out
}

// pins are the seed-independent reference values every run checks
// against: the cold report, the traced programs' retired instructions
// and event counts, the serve payloads, and the unmonitored debuggee
// runs. A mismatch fails the run.
type pins struct {
	// ReportSHA256 is the SHA-256 of report.All over the five paper
	// programs under Table 2 timings.
	ReportSHA256 string `json:"report_sha256"`
	// Programs maps each paper program to its trace's counts.
	Programs map[string]programPin `json:"programs"`
	// Debuggees maps gcc and smc to their unmonitored run.
	Debuggees map[string]debuggeePin `json:"debuggees"`
}

type programPin struct {
	Instret     uint64 `json:"instret"`
	Writes      uint64 `json:"writes"`
	Events      int    `json:"events"`
	TraceSHA256 string `json:"trace_sha256"`
}

type debuggeePin struct {
	Output  string `json:"output"`
	Cycles  uint64 `json:"cycles"`
	Instret uint64 `json:"instret"`
}

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return pins{}, fmt.Errorf("parsing pins: %w", err)
	}
	return p, nil
}
