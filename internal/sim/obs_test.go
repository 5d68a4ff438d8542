package sim

import (
	"strings"
	"testing"

	"edb/internal/obsv"
	"edb/internal/sessions"
)

// TestObservedReplayIsBitIdentical pins the Options.Obs contract:
// observation never feeds back. A replay under a live tracer must be
// bit-identical to the unobserved replay at one and three shards, and
// the expected span structure must appear — the prepass span (only when
// the engine computes the prepass itself), one engine span with its
// events_per_sec and shards attributes, and one span per shard worker
// when the replay fans out.
func TestObservedReplayIsBitIdentical(t *testing.T) {
	tr := checkedTrace(t, 71, 1500)
	set := sessions.Discover(tr)
	quiet, err := RunWithOptions(tr, set, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}

	// One shard, engine-computed prepass.
	obs := obsv.NewTracer(256)
	seq, err := RunWithOptions(tr, set, Options{Shards: 1, Obs: obs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range quiet.PerSession {
		if seq.PerSession[i] != quiet.PerSession[i] {
			t.Fatalf("session %d: observed sequential diverged: %+v != %+v",
				i, seq.PerSession[i], quiet.PerSession[i])
		}
	}
	names := spanNames(obs)
	for _, want := range []string{"replay-prepass", "replay-memory"} {
		if names[want] == 0 {
			t.Errorf("sequential replay recorded no %q span (got %v)", want, names)
		}
	}
	if !spanHasAttr(obs, "replay-memory", "events_per_sec") {
		t.Error("replay-memory span lacks events_per_sec attribute")
	}
	if got := spanAttr(obs, "replay-memory", "shards"); got != "1" {
		t.Errorf("replay-memory shards attribute = %q, want 1", got)
	}
	if names["replay-shard"] != 0 {
		t.Errorf("one-shard replay recorded %d replay-shard worker spans, want 0", names["replay-shard"])
	}

	// Three shards, shared precomputed prepass: no prepass span, one span
	// per worker.
	pp, err := Prepare(tr)
	if err != nil {
		t.Fatal(err)
	}
	obs = obsv.NewTracer(256)
	const k = 3
	sh, err := RunWithOptions(tr, set, Options{Shards: k, Obs: obs, Prepass: pp})
	if err != nil {
		t.Fatal(err)
	}
	for i := range quiet.PerSession {
		if sh.PerSession[i] != quiet.PerSession[i] {
			t.Fatalf("session %d: observed sharded diverged: %+v != %+v",
				i, sh.PerSession[i], quiet.PerSession[i])
		}
	}
	names = spanNames(obs)
	if names["replay-prepass"] != 0 {
		t.Error("sharded replay with a supplied prepass still recorded a replay-prepass span")
	}
	if names["replay-memory"] != 1 {
		t.Errorf("want 1 replay-memory span (got %v)", names)
	}
	if got := spanAttr(obs, "replay-memory", "shards"); got != "3" {
		t.Errorf("replay-memory shards attribute = %q, want %d", got, k)
	}
	if names["replay-shard"] != k {
		t.Errorf("got %d replay-shard worker spans, want %d", names["replay-shard"], k)
	}
}

// TestNilObsIsSupported re-pins, at the sim call sites, the obsv
// contract that a nil tracer is inert: Options.Obs == nil must follow
// the exact same code path as the explicit nil-receiver no-ops, with no
// panic anywhere in either engine.
func TestNilObsIsSupported(t *testing.T) {
	tr := checkedTrace(t, 72, 400)
	set := sessions.Discover(tr)
	var nilObs *obsv.Tracer
	for _, shards := range []int{1, 3} {
		if _, err := RunWithOptions(tr, set, Options{Shards: shards, Obs: nilObs}); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

func spanNames(tr *obsv.Tracer) map[string]int {
	out := map[string]int{}
	for _, r := range tr.Records() {
		if r.Kind == obsv.KindSpan {
			out[r.Name]++
		}
	}
	return out
}

// spanAttr returns the value of attribute key on the first span named
// span, or "" when there is none.
func spanAttr(tr *obsv.Tracer, span, key string) string {
	for _, r := range tr.Records() {
		if r.Kind != obsv.KindSpan || r.Name != span {
			continue
		}
		for _, kv := range r.Attrs {
			if kv.Key == key {
				return kv.Val
			}
		}
	}
	return ""
}

func spanHasAttr(tr *obsv.Tracer, span, key string) bool {
	for _, r := range tr.Records() {
		if r.Kind != obsv.KindSpan || r.Name != span {
			continue
		}
		for _, kv := range r.Attrs {
			if strings.HasPrefix(kv.Key, key) {
				return true
			}
		}
	}
	return false
}
