package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"edb/internal/exp"
	"edb/internal/model"
	"edb/internal/obsv"
	"edb/internal/report"
)

// warmSweep times one sweep of exp.RunContext over the seeded timing
// profiles, every one served from the artifacts the cold run cached:
// the REPL rerun or calibration sweep, where tracegen does no work.
// Every sweep's per-profile digests must match the first sweep's, and
// the Table 2 profile's report must match the pin.
func warmSweep(r *run, profiles []model.Timings) (float64, error) {
	runtime.GC()
	t := time.Now()
	digests := make([]string, len(profiles))
	for i, tm := range profiles {
		res, err := exp.RunContext(context.Background(), exp.Config{Programs: paperPrograms, Workers: 1, Timings: tm})
		if err != nil {
			return 0, fmt.Errorf("warm sweep: %w", err)
		}
		digests[i] = sweepDigest(res, tm)
		if i == 0 {
			sum := sha256.Sum256(renderReport(res, tm))
			r.check(hex.EncodeToString(sum[:]) == r.cfg.pins.ReportSHA256,
				"warm Table 2 report SHA-256 %x, pinned %s", sum, r.cfg.pins.ReportSHA256)
		}
	}
	wall := time.Since(t).Seconds()
	if r.warmRef == nil {
		r.warmRef = digests
	}
	for i := range digests {
		r.check(digests[i] == r.warmRef[i], "warm profile %d digest changed between sweeps", i)
	}
	return wall, nil
}

// warmTraced sweeps three more times: untraced through exp, under
// exp's own phase spans, and one layer call at a time under ledger
// spans over the artifacts coldTraced built the same way. The copy's
// digests must match exp's, and it must run exp's warm phases. It sets
// the warm per-layer metrics, tied to exp as on the cold phase: the
// tracing overhead is the traced copy's wall time minus the untraced
// sweep's, and warm.exp.copy_gap_ms is exp's phase time minus the
// copy's.
func warmTraced(r *run, profiles []model.Timings) error {
	untraced, err := warmSweep(r, profiles)
	if err != nil {
		return err
	}
	// exp's own phase spans over the sweep, and its cache counter: the
	// sweep builds nothing.
	et := obsv.NewTracer(1 << 12)
	m := obsv.NewMetrics()
	for _, tm := range profiles {
		if _, err := exp.RunContext(context.Background(), exp.Config{Programs: paperPrograms, Workers: 1, Timings: tm, Tracer: et, Metrics: m}); err != nil {
			return fmt.Errorf("warm sweep: %w", err)
		}
	}
	misses := m.Counter(`edb_cache_total{result="miss"}`).Value()

	arts := r.direct
	group := "warm-1"
	var sessionsN, hits uint64
	l := r.ledger
	runtime.GC()
	root := l.begin("warm.sweep", span{}, group)
	t := time.Now()
	for i, tm := range profiles {
		var res []*exp.ProgramResult
		for _, name := range paperPrograms {
			ps := l.begin("exp.program", root, group)
			pr, err := analyzeDirect(l, ps, group, arts[name], tm)
			ps.end()
			if err != nil {
				return err
			}
			res = append(res, pr)
			sessionsN += uint64(len(pr.Kept) + pr.Discarded)
			for _, k := range pr.Kept {
				hits += k.Counting.Hits
			}
		}
		sp := l.begin("report.All", root, group)
		d := sweepDigest(res, tm)
		sp.end()
		r.check(d == r.warmRef[i], "warm profile %d: layer-by-layer digest differs from exp's", i)
	}
	root.end()
	traced := time.Since(t).Seconds()

	nodes, err := r.ledger.nodes()
	if err != nil {
		return err
	}
	for _, m := range []struct{ metric, span string }{
		{"sessions.discover_ms", "sessions.Discover"},
		{"sim.replay_ms", "sim.RunWithOptions"},
		{"stats.summarize_ms", "stats.Summarize"},
		{"report.render_ms", "report.All"},
	} {
		r.set("warm."+m.metric, selfMS(nodes, group, m.span), "ms")
	}
	r.set("warm.model.estimate_ms", selfMS(nodes, group, "model.Estimate")+selfMS(nodes, group, "model.Breakdown"), "ms")
	r.set("warm.exp.other_ms", selfMS(nodes, group, "warm.sweep")+selfMS(nodes, group, "exp.program")+selfMS(nodes, group, "exp.model"), "ms")
	r.set("warm.trace.overhead_ms", (traced-untraced)*1000, "ms")
	r.set("warm.exp.copy_gap_ms", r.comparePhases("warm", et, nodes, group), "ms")
	var events float64
	for _, a := range arts {
		events += float64(len(a.tr.Events))
	}
	r.set("warm.sim.replay_events_per_s", events*float64(len(profiles))/(selfMS(nodes, group, "sim.RunWithOptions")/1000), "1/s")
	r.set("warm.exp.cache_misses", float64(misses), "count")
	r.set("warm.sim.sessions", float64(sessionsN), "count")
	r.set("warm.wms.hits", float64(hits), "count")
	return nil
}

// sweepDigest is the SHA-256 of everything one profile's results
// render: every table and figure plus the per-session CSV.
func sweepDigest(res []*exp.ProgramResult, tm model.Timings) string {
	var b bytes.Buffer
	b.Write(renderReport(res, tm))
	byName := make(map[string]*exp.ProgramResult)
	for _, pr := range res {
		byName[pr.Program] = pr
	}
	ordered := make([]*exp.ProgramResult, 0, len(res))
	for _, n := range paperPrograms {
		ordered = append(ordered, byName[n])
	}
	report.SessionsCSV(&b, ordered)
	b.WriteString(strconv.Itoa(len(res)))
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}
