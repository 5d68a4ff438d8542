package main

import (
	"fmt"
	"sort"
	"time"
)

// A shared host runs this benchmark at a speed that drifts by a quarter
// or more over minutes, with every run's phases slowed alike. So each
// run also times a fixed calibration kernel of this file's own between
// its phases, and reports every end-to-end host time at a reference
// speed: the raw median scaled by calibRefMS over the median kernel
// time of the run. No code of the repository runs in the kernel, so a
// change to the program moves the scaled figure as much as the raw
// one; only the host's speed cancels out.
//
// The kernel does the kinds of work the program does: a switch-dispatch
// loop over a small memory (the simulated CPU's fetch and register
// traffic), random reads and writes over a memory larger than the
// processor's caches (trace and page-table accesses), sequential writes
// (event appends) and sorting. Its buffers are allocated once, at start,
// and it allocates nothing, so the program's heap and collector never
// change its time.

// calibRefMS is the kernel's time on the reference host (a 2-vCPU
// Intel Xeon, Go 1.24): scaled figures read as that host's times.
const calibRefMS = 120.0

// hostTimed are the end-to-end metrics reported at the reference speed.
var hostTimed = []string{"setup_s", "cold_run_s", "warm_sweep_s", "serve_hit_p50_ms", "live_session_s"}

var (
	calibSmall = make([]uint32, 1<<18) // 1 MiB
	calibLarge = make([]uint32, 1<<22) // 16 MiB
	calibKeys  = make([]int, 1<<17)
	calibSort  = make([]int, 1<<17)
	calibSink  uint32
)

func init() {
	x := uint32(3)
	for i := range calibKeys {
		x = x*1664525 + 1013904223
		calibKeys[i] = int(x)
	}
}

// calibrate times the kernel once, in milliseconds.
func calibrate() float64 {
	t := time.Now()
	calibSink += calibDispatch(calibSmall, 6_000_000)
	calibSink += calibDispatch(calibLarge, 2_500_000)
	calibStream(calibLarge)
	copy(calibSort, calibKeys)
	sort.Ints(calibSort)
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// calibDispatch runs n steps of a dispatch loop whose operands are
// drawn by a linear congruential generator: a store, a load, an ALU op
// or a rotate, over mem (its length a power of two).
func calibDispatch(mem []uint32, n int) uint32 {
	mask := uint32(len(mem) - 1)
	var x, acc uint32 = 1, 0
	for i := 0; i < n; i++ {
		x = x*1664525 + 1013904223
		switch x >> 30 {
		case 0:
			mem[(x>>7)&mask] += x
		case 1:
			acc ^= mem[(x>>5)&mask]
		case 2:
			acc += x >> 3
		default:
			acc = acc<<1 | acc>>31
		}
	}
	return acc
}

// calibStream writes mem end to end twice.
func calibStream(mem []uint32) {
	x := uint32(7)
	for r := 0; r < 2; r++ {
		for i := range mem {
			x = x*1664525 + 1013904223
			mem[i] = x
		}
	}
}

// calib takes one calibration sample.
func (r *run) calib() {
	r.calibMS = append(r.calibMS, calibrate())
}

// scaleHostTimes puts every host-timed metric at the reference speed,
// logging the raw figures.
func (r *run) scaleHostTimes() {
	med := median(r.calibMS)
	f := calibRefMS / med
	fmt.Fprintf(r.cfg.log, "edbbench: calibration: %d samples, median %.1f ms, scale %.4f (%.1f ms)\n", len(r.calibMS), med, f, r.calibMS)
	for _, name := range hostTimed {
		m, ok := r.metrics[name]
		if !ok {
			continue
		}
		fmt.Fprintf(r.cfg.log, "edbbench: %s raw %.4f %s\n", name, m.Value, m.Unit)
		m.Value *= f
		r.metrics[name] = m
	}
}
