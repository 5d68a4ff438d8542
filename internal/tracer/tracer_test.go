package tracer

import (
	"bytes"
	"testing"

	"edb/internal/arch"
	"edb/internal/kernel"
	"edb/internal/minic"
	"edb/internal/objects"
	"edb/internal/progs"
	"edb/internal/trace"
)

func traceSrc(t *testing.T, src string) *trace.Trace {
	t.Helper()
	img, err := minic.CompileToImage(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(m, "test").Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	return tr
}

func findObj(tr *trace.Trace, kind objects.Kind, fn, name string) (objects.Object, bool) {
	for _, o := range tr.Objects.All() {
		if o.Kind == kind && o.Func == fn && o.Name == name {
			return o, true
		}
	}
	return objects.Object{}, false
}

func eventsFor(tr *trace.Trace, id objects.ID) (installs, removes int) {
	for _, e := range tr.Events {
		if e.Obj != id {
			continue
		}
		switch e.Kind {
		case trace.EvInstall:
			installs++
		case trace.EvRemove:
			removes++
		}
	}
	return
}

func TestLocalInstallPerCall(t *testing.T) {
	tr := traceSrc(t, `
	int f(int n) { int x; x = n * 2; return x; }
	int main() {
		int i;
		for (i = 0; i < 5; i = i + 1) { f(i); }
		return 0;
	}`)
	o, ok := findObj(tr, objects.KindLocalAuto, "f", "x")
	if !ok {
		t.Fatal("local f.x not in object table")
	}
	ins, rem := eventsFor(tr, o.ID)
	if ins != 5 || rem != 5 {
		t.Errorf("f.x installed %d / removed %d times, want 5/5", ins, rem)
	}
	// The parameter n is also an automatic variable.
	on, ok := findObj(tr, objects.KindLocalAuto, "f", "n")
	if !ok {
		t.Fatal("param f.n not in object table")
	}
	ins, _ = eventsFor(tr, on.ID)
	if ins != 5 {
		t.Errorf("f.n installed %d times", ins)
	}
}

func TestWritesTraced(t *testing.T) {
	tr := traceSrc(t, `
	int g;
	int main() {
		g = 1; g = 2; g = 3;
		return 0;
	}`)
	og, _ := findObj(tr, objects.KindGlobal, "", "g")
	gRange := arch.Range{}
	for _, e := range tr.Events {
		if e.Kind == trace.EvInstall && e.Obj == og.ID {
			gRange = arch.Range{BA: e.BA, EA: e.EA}
		}
	}
	writes := 0
	for _, e := range tr.Events {
		if e.Kind == trace.EvWrite && gRange.Contains(e.BA) {
			writes++
		}
	}
	if writes != 3 {
		t.Errorf("writes to g = %d, want 3", writes)
	}
}

func TestImplicitWritesExcluded(t *testing.T) {
	// A function call makes implicit stores (saved RA/FP). Only the
	// explicit user stores may appear.
	tr := traceSrc(t, `
	int f() { return 1; }
	int main() { f(); f(); return 0; }`)
	for _, e := range tr.Events {
		if e.Kind != trace.EvWrite {
			continue
		}
		// Every traced write must land in a known object (here: nothing,
		// since no user variable is ever assigned) — so no write events
		// at all.
		t.Errorf("unexpected write event %+v", e)
	}
}

func TestRecursionOverlappingInstantiations(t *testing.T) {
	tr := traceSrc(t, `
	int down(int n) {
		int local;
		local = n;
		if (n > 0) { return down(n - 1); }
		return local;
	}
	int main() { return down(4); }`)
	o, ok := findObj(tr, objects.KindLocalAuto, "down", "local")
	if !ok {
		t.Fatal("down.local missing")
	}
	ins, rem := eventsFor(tr, o.ID)
	if ins != 5 || rem != 5 {
		t.Errorf("recursive local installed/removed %d/%d, want 5/5", ins, rem)
	}
	// The five instantiations must occupy five distinct ranges.
	ranges := make(map[arch.Addr]bool)
	for _, e := range tr.Events {
		if e.Kind == trace.EvInstall && e.Obj == o.ID {
			ranges[e.BA] = true
		}
	}
	if len(ranges) != 5 {
		t.Errorf("distinct instantiation addresses = %d, want 5", len(ranges))
	}
}

func TestHeapObjectLifecycle(t *testing.T) {
	tr := traceSrc(t, `
	int build() { return alloc(16); }
	int main() {
		int p = build();
		p[0] = 1;
		free(p);
		return 0;
	}`)
	var heapObjs []objects.Object
	for _, o := range tr.Objects.All() {
		if o.Kind == objects.KindHeap {
			heapObjs = append(heapObjs, o)
		}
	}
	if len(heapObjs) != 1 {
		t.Fatalf("heap objects = %d, want 1", len(heapObjs))
	}
	h := heapObjs[0]
	// Allocation context: _start, main, build (distinct, outermost first).
	want := []string{"_start", "main", "build"}
	if len(h.AllocCtx) != len(want) {
		t.Fatalf("AllocCtx = %v", h.AllocCtx)
	}
	for i := range want {
		if h.AllocCtx[i] != want[i] {
			t.Errorf("AllocCtx = %v, want %v", h.AllocCtx, want)
		}
	}
	ins, rem := eventsFor(tr, h.ID)
	if ins != 1 || rem != 1 {
		t.Errorf("heap install/remove = %d/%d", ins, rem)
	}
}

func TestReallocKeepsIdentity(t *testing.T) {
	tr := traceSrc(t, `
	int main() {
		int p = alloc(8);
		int q = alloc(8);   // force the realloc to move
		p = realloc(p, 64);
		p[10] = 5;
		free(p);
		free(q);
		return 0;
	}`)
	count := 0
	for _, o := range tr.Objects.All() {
		if o.Kind == objects.KindHeap {
			count++
		}
	}
	// Two allocs; the realloc must NOT create a third object.
	if count != 2 {
		t.Errorf("heap objects = %d, want 2 (realloc preserves identity)", count)
	}
}

func TestStaticsAreLifetimeObjects(t *testing.T) {
	tr := traceSrc(t, `
	int tick() { static int n; n = n + 1; return n; }
	int main() { tick(); tick(); return 0; }`)
	o, ok := findObj(tr, objects.KindLocalStatic, "tick", "tick$n")
	if !ok {
		t.Fatal("static tick$n missing")
	}
	ins, rem := eventsFor(tr, o.ID)
	if ins != 1 || rem != 1 {
		t.Errorf("static install/remove = %d/%d, want 1/1 (program lifetime)", ins, rem)
	}
	// Writes to the static are traced.
	writes := 0
	var r arch.Range
	for _, e := range tr.Events {
		if e.Kind == trace.EvInstall && e.Obj == o.ID {
			r = arch.Range{BA: e.BA, EA: e.EA}
		}
	}
	for _, e := range tr.Events {
		if e.Kind == trace.EvWrite && r.Contains(e.BA) {
			writes++
		}
	}
	if writes != 2 {
		t.Errorf("writes to static = %d, want 2", writes)
	}
}

func TestBaseCyclesRecorded(t *testing.T) {
	tr := traceSrc(t, `int main() {
		int i; int s = 0;
		for (i = 0; i < 1000; i = i + 1) { s = s + i; }
		return 0;
	}`)
	if tr.BaseCycles == 0 || tr.Instret == 0 {
		t.Error("base run statistics missing")
	}
	if tr.BaseSeconds() <= 0 {
		t.Error("base seconds must be positive")
	}
}

func TestLocalRangesOnStack(t *testing.T) {
	tr := traceSrc(t, `
	int f() { int x; x = 1; return x; }
	int main() { return f(); }`)
	o, _ := findObj(tr, objects.KindLocalAuto, "f", "x")
	for _, e := range tr.Events {
		if e.Kind == trace.EvInstall && e.Obj == o.ID {
			if arch.SegmentOf(e.BA) != arch.SegStack {
				t.Errorf("local installed outside stack: %#x", e.BA)
			}
			// The traced write to x must land inside the installed range.
			r := arch.Range{BA: e.BA, EA: e.EA}
			found := false
			for _, w := range tr.Events {
				if w.Kind == trace.EvWrite && r.Contains(w.BA) {
					found = true
				}
			}
			if !found {
				t.Error("write to f.x missed its installed range")
			}
		}
	}
}

func TestWriteDensity(t *testing.T) {
	// Sanity check on the experiment's time base: traced stores per
	// cycle should be well below 1 (the paper's programs run 1 store
	// per ~30-80 cycles; synthetic ones must be in a plausible band).
	tr := traceSrc(t, `
	int work(int a, int b) {
		int i; int s = 0;
		for (i = 0; i < 100; i = i + 1) {
			if ((a + i) % 3 == 0) { s = s + (a*i) % 7; }
			if (s > 1000) { s = s - b; }
		}
		return s;
	}
	int main() {
		int j; int r = 0;
		for (j = 0; j < 20; j = j + 1) { r = r + work(j, r); }
		return 0;
	}`)
	_, _, writes := tr.Counts()
	density := float64(writes) / float64(tr.BaseCycles)
	if density <= 0 || density > 0.2 {
		t.Errorf("write density = %f writes/cycle, implausible", density)
	}
}

// TestRunStreamedMatchesMaterialized: the streaming path (events
// appended to a trace.Writer as the machine runs) must produce a v3
// file byte-identical to materialising the whole trace and encoding it
// afterwards — same events, same blocking, same counters.
func TestRunStreamedMatchesMaterialized(t *testing.T) {
	src := `
	int g;
	int f(int n) { int x; x = n * 2; g = g + x; return x; }
	int main() {
		int i;
		int p = alloc(32);
		for (i = 0; i < 50; i = i + 1) { p[i % 8] = f(i); }
		free(p);
		return 0;
	}`
	img, err := minic.CompileToImage(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, blockEvents := range []int{0, 8, 64} {
		// Materialised reference.
		m1, err := kernel.NewMachine(img, arch.PageSize4K)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := New(m1, "diff").Run(50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := trace.WriteTo(&want, tr, trace.WriteOptions{Version: 3, BlockEvents: blockEvents}); err != nil {
			t.Fatal(err)
		}

		// Streamed run on a fresh machine.
		m2, err := kernel.NewMachine(img, arch.PageSize4K)
		if err != nil {
			t.Fatal(err)
		}
		tc := New(m2, "diff")
		var got bytes.Buffer
		tw, err := trace.NewWriter(&got, trace.WriterOptions{
			Program: "diff", Objects: tc.Objects(), BlockEvents: blockEvents,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.RunStreamed(50_000_000, tw); err != nil {
			t.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}

		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("blockEvents=%d: streamed v3 bytes diverge from materialised (%d vs %d bytes)",
				blockEvents, got.Len(), want.Len())
		}
		ins, rem, wr := tw.Counts()
		wantIns, wantRem, wantWr := tr.Counts()
		if ins != uint64(wantIns) || rem != uint64(wantRem) || wr != uint64(wantWr) {
			t.Errorf("blockEvents=%d: streamed counts %d/%d/%d, want %d/%d/%d",
				blockEvents, ins, rem, wr, wantIns, wantRem, wantWr)
		}
		if tw.NumEvents() != uint64(len(tr.Events)) {
			t.Errorf("blockEvents=%d: streamed %d events, materialised %d",
				blockEvents, tw.NumEvents(), len(tr.Events))
		}
	}
}

// TestTraceDeterministic is a regression test for a latent
// nondeterminism bug: global objects used to be minted by iterating the
// image's Data map, so object IDs (and every downstream session index)
// varied run to run. Two independent traces of the same program must
// now produce identical object tables and event streams.
func TestTraceDeterministic(t *testing.T) {
	src := `
	int ga = 1; int gb = 2; int gc = 3; int gd = 4; int ge = 5;
	int counter() { static int n = 0; n = n + 1; return n; }
	int main() {
		int i; int s = 0;
		int p = alloc(16);
		for (i = 0; i < 10; i = i + 1) {
			ga = ga + i; gb = gb + ga; gc = gc ^ gb;
			gd = gd + counter(); ge = ge + gd;
			p[i % 4] = s; s = s + ge;
		}
		free(p);
		return 0;
	}`
	a := traceSrc(t, src)
	b := traceSrc(t, src)
	if a.Objects.Len() != b.Objects.Len() {
		t.Fatalf("object counts differ: %d vs %d", a.Objects.Len(), b.Objects.Len())
	}
	for i := 1; i <= a.Objects.Len(); i++ {
		oa := a.Objects.MustGet(objects.ID(i))
		ob := b.Objects.MustGet(objects.ID(i))
		if oa.Kind != ob.Kind || oa.Func != ob.Func || oa.Name != ob.Name || oa.SizeBytes != ob.SizeBytes {
			t.Errorf("object %d differs: %+v vs %+v", i, oa, ob)
		}
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}
	// Globals must be minted in data-segment layout order.
	var lastBA arch.Addr
	for _, e := range a.Events {
		if e.Kind != trace.EvInstall {
			continue
		}
		o := a.Objects.MustGet(e.Obj)
		if o.Kind != objects.KindGlobal {
			continue
		}
		if e.BA < lastBA {
			t.Fatalf("global %q installed out of layout order (%#x after %#x)",
				o.Name, uint32(e.BA), uint32(lastBA))
		}
		lastBA = e.BA
	}
}

// TestChurnEmitsMidStreamEvents: an armed churn schedule injects a
// remove/install pair for the named lifetime object at each explicit-
// write threshold, and the result is still a balanced, exclusive trace.
func TestChurnEmitsMidStreamEvents(t *testing.T) {
	src := `
	int g; int h;
	int main() {
		int i;
		for (i = 0; i < 20; i = i + 1) { g = g + i; h = h - i; }
		return 0;
	}`
	img, err := minic.CompileToImage(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	tc := New(m, "churn")
	// Out of order on purpose: Churn sorts by threshold.
	if err := tc.Churn([]ChurnPoint{
		{Sym: "g", AfterWrites: 30},
		{Sym: "g", AfterWrites: 10},
		{Sym: "h", AfterWrites: 10},
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := tc.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("churned trace invalid: %v", err)
	}
	if err := tr.ValidateExclusive(); err != nil {
		t.Fatalf("churned trace not exclusive: %v", err)
	}
	gObj, ok := findObj(tr, objects.KindGlobal, "", "g")
	if !ok {
		t.Fatal("no object for g")
	}
	hObj, ok := findObj(tr, objects.KindGlobal, "", "h")
	if !ok {
		t.Fatal("no object for h")
	}
	// Lifetime install + 2 churn re-installs for g, + 1 for h.
	if ins, rem := eventsFor(tr, gObj.ID); ins != 3 || rem != 3 {
		t.Errorf("g: %d installs / %d removes, want 3/3", ins, rem)
	}
	if ins, rem := eventsFor(tr, hObj.ID); ins != 2 || rem != 2 {
		t.Errorf("h: %d installs / %d removes, want 2/2", ins, rem)
	}
	// Every churn remove is immediately followed by the re-install of
	// the same object over the same range.
	churns := 0
	for i, e := range tr.Events {
		if e.Kind != trace.EvRemove || i+1 >= len(tr.Events) {
			continue
		}
		next := tr.Events[i+1]
		if next.Kind == trace.EvInstall && next.Obj == e.Obj {
			if next.BA != e.BA || next.EA != e.EA {
				t.Errorf("churn re-install range %v..%v != removed %v..%v", next.BA, next.EA, e.BA, e.EA)
			}
			churns++
		}
	}
	if churns != 3 {
		t.Errorf("found %d adjacent remove/install pairs, want 3", churns)
	}
}

func TestChurnValidation(t *testing.T) {
	img, err := minic.CompileToImage(`int g; int main() { g = 1; return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := kernel.NewMachine(img, arch.PageSize4K)
	tc := New(m, "churn")
	if err := tc.Churn([]ChurnPoint{{Sym: "ghost", AfterWrites: 1}}); err == nil {
		t.Error("unknown symbol accepted")
	}
	if err := tc.Churn([]ChurnPoint{{Sym: "g", AfterWrites: 0}}); err == nil {
		t.Error("zero threshold accepted")
	}
}

// TestChurnStreamedBitIdentical: the churn schedule keys on the
// explicit-write count, so the streamed writer and the materialise-
// then-encode path must stay byte-identical — mid-stream session
// mutation does not perturb replayable trace I/O.
func TestChurnStreamedBitIdentical(t *testing.T) {
	src := `
	int g; int acc;
	int f(int n) { g = g + n; return g; }
	int main() {
		int i;
		for (i = 0; i < 40; i = i + 1) { acc = acc + f(i); }
		return 0;
	}`
	img, err := minic.CompileToImage(src)
	if err != nil {
		t.Fatal(err)
	}
	schedule := []ChurnPoint{
		{Sym: "g", AfterWrites: 7},
		{Sym: "acc", AfterWrites: 19},
		{Sym: "g", AfterWrites: 44},
	}
	m1, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	t1 := New(m1, "churn")
	if err := t1.Churn(schedule); err != nil {
		t.Fatal(err)
	}
	tr, err := t1.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.WriteTo(&want, tr, trace.WriteOptions{Version: 3, BlockEvents: 16}); err != nil {
		t.Fatal(err)
	}

	m2, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	t2 := New(m2, "churn")
	if err := t2.Churn(schedule); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	tw, err := trace.NewWriter(&got, trace.WriterOptions{
		Program: "churn", Objects: t2.Objects(), BlockEvents: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.RunStreamed(50_000_000, tw); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("streamed churned v3 bytes diverge from materialised (%d vs %d bytes)", got.Len(), want.Len())
	}
}

// TestWorkloadTracesByteIdentical: two traces of each workload encode
// to identical bytes. Heap objects still live at exit used to be torn
// down in map order, so spice, gcc and bps traces differed from run to
// run in their final remove events; teardown now goes by descending
// object ID.
func TestWorkloadTracesByteIdentical(t *testing.T) {
	for _, p := range progs.All(1) {
		img, err := minic.CompileToImage(p.Source)
		if err != nil {
			t.Fatal(err)
		}
		var enc [2][]byte
		for i := range enc {
			m, err := kernel.NewMachine(img, arch.PageSize4K)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := New(m, p.Name).Run(p.Fuel)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			var buf bytes.Buffer
			if err := trace.WriteTo(&buf, tr, trace.WriteOptions{}); err != nil {
				t.Fatal(err)
			}
			enc[i] = buf.Bytes()
		}
		if !bytes.Equal(enc[0], enc[1]) {
			t.Errorf("%s: two traces encode to different bytes", p.Name)
		}
	}
}

// TestTeardownOrder: heap objects live at exit are removed innermost
// allocation first — descending object ID — after the frames and
// before the program-lifetime objects.
func TestTeardownOrder(t *testing.T) {
	tr := traceSrc(t, `
	int main() {
		int i;
		int p;
		for (i = 0; i < 12; i = i + 1) { p = alloc(8 + i * 4); }
		return 0;
	}`)
	var heapRemoves []objects.ID
	for _, e := range tr.Events {
		if e.Kind == trace.EvRemove && tr.Objects.MustGet(e.Obj).Kind == objects.KindHeap {
			heapRemoves = append(heapRemoves, e.Obj)
		}
	}
	if len(heapRemoves) != 12 {
		t.Fatalf("%d heap removes, want 12", len(heapRemoves))
	}
	for i := 1; i < len(heapRemoves); i++ {
		if heapRemoves[i] >= heapRemoves[i-1] {
			t.Fatalf("heap teardown order %v is not descending by ID", heapRemoves)
		}
	}
}
