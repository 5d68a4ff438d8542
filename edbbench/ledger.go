package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"edb/internal/obsv"
)

// ledger records spans around the benchmark's calls into each layer's
// public functions. Spans stay in the obsv collector until the run
// ends; write exports them once in the obsv JSONL and Chrome
// trace_event (Perfetto) formats. A nil ledger records nothing, so the
// untraced run shares the traced run's code at the cost of a nil check.
type ledger struct {
	tr   *obsv.Tracer
	next atomic.Int64
}

// ledgerCapacity holds every span of a run: the live phase records one
// per break and mutation, bounded by the script's break cap.
const ledgerCapacity = 1 << 18

func newLedger() *ledger { return &ledger{tr: obsv.NewTracer(ledgerCapacity)} }

// span is one open ledger span. Its attributes carry its own ID, its
// parent's ID (0 for a root) and the ID shared by every span of one
// cold run, sweep, request or debug session.
type span struct {
	sp obsv.Span
	id int64
}

// begin opens a span named after the layer function it times.
func (l *ledger) begin(name string, parent span, group string) span {
	if l == nil {
		return span{}
	}
	s := span{sp: l.tr.StartSpan(name), id: l.next.Add(1)}
	s.sp.Int("span_id", s.id)
	s.sp.Int("parent_id", parent.id)
	s.sp.Attr("id", group)
	return s
}

func (s *span) end() { s.sp.End() }

// node is one completed span and the time its children took.
type node struct {
	name           string
	group          string
	dur, childDur  int64
	parent, spanID int64
}

// nodes returns every completed span keyed by span ID, with the time
// its child spans took. Children of one span run one after another on
// its goroutine, so their durations add up without overlap.
func (l *ledger) nodes() (map[int64]*node, error) {
	if n := l.tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("ledger dropped %d spans: raise ledgerCapacity", n)
	}
	out := make(map[int64]*node)
	for _, r := range l.tr.Records() {
		if r.Kind != obsv.KindSpan {
			continue
		}
		n := &node{name: r.Name, dur: r.Dur}
		for _, kv := range r.Attrs {
			switch kv.Key {
			case "span_id":
				n.spanID, _ = strconv.ParseInt(kv.Val, 10, 64)
			case "parent_id":
				n.parent, _ = strconv.ParseInt(kv.Val, 10, 64)
			case "id":
				n.group = kv.Val
			}
		}
		out[n.spanID] = n
	}
	for _, n := range out {
		if p, ok := out[n.parent]; ok {
			p.childDur += n.dur
		}
	}
	return out, nil
}

// selfMS sums the self time, in milliseconds, of every span named name
// whose group is group.
func selfMS(nodes map[int64]*node, group, name string) float64 {
	var ns int64
	for _, n := range nodes {
		if n.group == group && n.name == name {
			ns += n.dur - n.childDur
		}
	}
	return float64(ns) / 1e6
}

// write exports the spans as <dir>/spans-<workload>-<seed>.jsonl and
// .perfetto.json.
func (l *ledger) write(dir, workload string, seed int64) error {
	base := filepath.Join(dir, fmt.Sprintf("spans-%s-%d", workload, seed))
	for _, f := range []struct {
		ext   string
		write func(*bufio.Writer) error
	}{
		{".jsonl", func(w *bufio.Writer) error { return l.tr.WriteJSONL(w) }},
		{".perfetto.json", func(w *bufio.Writer) error { return l.tr.WriteChromeTrace(w) }},
	} {
		fh, err := os.Create(base + f.ext)
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		w := bufio.NewWriter(fh)
		err = f.write(w)
		if err == nil {
			err = w.Flush()
		}
		if cerr := fh.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return nil
}
