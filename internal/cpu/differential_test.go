package cpu_test

// The predecode differential: a predecoded CPU and a reference stepper
// run the same program in lockstep and must agree after every step on
// Regs, PC, Cycles, Instret, Stores, halt state, the OnStore / OnCall /
// OnRet callback sequence and the returned error. The reference is the
// same core with its predecode table flushed before each step, so it
// decodes every instruction fresh from memory. Seeded edits of live
// text — KernelWriteWord, WriteBytesKernel, WriteWord through a
// briefly writable page, and Protect calls that remove exec from text
// pages — hit both memories between steps; a stale predecode slot
// shows up as the first divergence.

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"edb/internal/arch"
	"edb/internal/asm"
	"edb/internal/cpu"
	"edb/internal/isa"
	"edb/internal/kernel"
	"edb/internal/mem"
	"edb/internal/minic"
	"edb/internal/progs"
)

// callback is one observation-hook invocation: kind 's' (OnStore
// ba, ea, pc), 'c' (OnCall target, pc) or 'r' (OnRet pc).
type callback struct {
	kind     byte
	a, b, pc arch.Addr
}

// rig is one machine under lockstep observation.
type rig struct {
	m   *kernel.Machine
	log []callback
}

func newRig(t *testing.T, img *asm.Image) *rig {
	t.Helper()
	m, err := kernel.NewMachine(img, arch.PageSize4K)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{m: m}
	m.CPU.OnStore = func(ba, ea, pc arch.Addr) { r.log = append(r.log, callback{'s', ba, ea, pc}) }
	m.CPU.OnCall = func(target, pc arch.Addr) { r.log = append(r.log, callback{'c', target, 0, pc}) }
	m.CPU.OnRet = func(pc arch.Addr) { r.log = append(r.log, callback{'r', 0, 0, pc}) }
	return r
}

// edit is one change to memory, applied identically to both rigs.
type edit func(m *mem.Memory)

// editor picks the edit (or none) to apply before step i, with the
// predecoded CPU about to execute pc and stores counting the explicit
// stores retired so far.
type editor func(i int, pc arch.Addr, stores uint64) edit

// stepStats summarises one lockstep run.
type stepStats struct {
	steps       int
	fetchFaults []mem.Fault
	err         error
	fast, ref   *cpu.CPU
}

// lockstep runs img on a predecoded rig and a reference rig for at
// most maxSteps steps and fails the test at the first divergence. A
// fetch protection fault restores exec on the whole text of both rigs
// and the run resumes; any other error ends it.
func lockstep(t *testing.T, img *asm.Image, maxSteps int, ed editor) stepStats {
	t.Helper()
	fast, ref := newRig(t, img), newRig(t, img)
	text := img.TextRange()
	var explicit uint64
	st := stepStats{fast: fast.m.CPU, ref: ref.m.CPU}
	for ; st.steps < maxSteps && !fast.m.CPU.Halted; st.steps++ {
		if ed != nil {
			if e := ed(st.steps, fast.m.CPU.PC, explicit); e != nil {
				e(fast.m.Mem)
				e(ref.m.Mem)
			}
		}
		ref.m.CPU.FlushPredecode()
		errF, errR := fast.m.CPU.Step(), ref.m.CPU.Step()
		if d := diverged(fast, ref, errF, errR); d != "" {
			t.Fatalf("step %d (pc %#x): predecoded and reference CPUs diverge: %s", st.steps, uint32(fast.m.CPU.PC), d)
		}
		for _, cb := range fast.log {
			if cb.kind == 's' && !img.ImplicitStores[cb.pc] {
				explicit++
			}
		}
		fast.log, ref.log = fast.log[:0], ref.log[:0]
		if errF == nil {
			continue
		}
		var f *mem.Fault
		if errors.As(errF, &f) && f.Access == mem.AccessFetch && f.Kind == mem.FaultProtection {
			st.fetchFaults = append(st.fetchFaults, *f)
			fast.m.Mem.Protect(text.BA, text.EA, mem.ProtRead|mem.ProtExec)
			ref.m.Mem.Protect(text.BA, text.EA, mem.ProtRead|mem.ProtExec)
			continue
		}
		st.err = errF
		break
	}
	return st
}

// diverged describes the first difference between the two rigs after
// a step, or returns "".
func diverged(a, b *rig, ea, eb error) string {
	ca, cb := a.m.CPU, b.m.CPU
	switch {
	case ca.Regs != cb.Regs:
		return "registers"
	case ca.PC != cb.PC:
		return "pc"
	case ca.Cycles != cb.Cycles || ca.Instret != cb.Instret || ca.Stores != cb.Stores:
		return "counters"
	case ca.Halted != cb.Halted || ca.ExitCode != cb.ExitCode:
		return "halt state"
	case !slices.Equal(a.log, b.log):
		return "callback sequence"
	case (ea == nil) != (eb == nil):
		return "one step failed, the other did not"
	case ea != nil && ea.Error() != eb.Error():
		return "errors differ: " + ea.Error() + " vs " + eb.Error()
	}
	var fa, fb *mem.Fault
	if errors.As(ea, &fa) != errors.As(eb, &fb) || fa != nil && *fa != *fb {
		return "memory faults differ"
	}
	var xa, xb *cpu.ExecError
	if errors.As(ea, &xa) != errors.As(eb, &xb) || xa != nil && xa.PC != xb.PC {
		return "fault PCs differ"
	}
	return ""
}

// randomEdits returns an editor that, with probability rate before
// each step, rewrites or unprotects text near the PC: another word of
// the program, the original word back, an illegal word, bytes through
// WriteBytesKernel, a user WriteWord through a briefly writable page,
// or exec removed from the page.
func randomEdits(rng *rand.Rand, img *asm.Image, rate float64) editor {
	text := img.TextRange()
	return func(_ int, pc arch.Addr, _ uint64) edit {
		if rng.Float64() >= rate {
			return nil
		}
		a := pc + arch.Addr(arch.WordBytes*(rng.Intn(17)-8))
		if !arch.Aligned(a) || !text.Contains(a) {
			a = text.BA + arch.Addr(arch.WordBytes*rng.Intn(len(img.Text)))
		}
		orig := arch.Word(img.Text[(a-text.BA)/arch.WordBytes])
		other := arch.Word(img.Text[rng.Intn(len(img.Text))])
		page := arch.PageBase(a, arch.PageSize4K)
		switch r := rng.Intn(12); {
		case r < 4:
			return func(m *mem.Memory) { mustOK(m.KernelWriteWord(a, other)) }
		case r < 8:
			return func(m *mem.Memory) { mustOK(m.KernelWriteWord(a, orig)) }
		case r < 9:
			return func(m *mem.Memory) { mustOK(m.KernelWriteWord(a, 0)) }
		case r < 10:
			b := []byte{byte(other), byte(other >> 8), byte(other >> 16), byte(other >> 24)}
			return func(m *mem.Memory) { mustOK(m.WriteBytesKernel(a, b)) }
		case r < 11:
			return func(m *mem.Memory) {
				m.Protect(page, page+arch.PageSize4K, mem.ProtRW|mem.ProtExec)
				mustOK(m.WriteWord(a, other))
				m.Protect(page, page+arch.PageSize4K, mem.ProtRead|mem.ProtExec)
			}
		default:
			return func(m *mem.Memory) { m.Protect(page, page+arch.PageSize4K, mem.ProtRead) }
		}
	}
}

func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}

func compile(t *testing.T, src string) *asm.Image {
	t.Helper()
	img, err := minic.CompileToImage(src)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// checkHits: in an unedited run every text word misses the predecode
// table at most once — its first fetch — while the reference misses
// on every step.
func checkHits(t *testing.T, name string, img *asm.Image, st stepStats) {
	t.Helper()
	if st.fast.DecodeMisses > uint64(len(img.Text)) {
		t.Errorf("%s: %d predecode misses over %d text words; a word missed twice", name, st.fast.DecodeMisses, len(img.Text))
	}
	if st.ref.DecodeMisses != uint64(st.steps) {
		t.Errorf("%s: reference decoded %d times in %d steps, want every step", name, st.ref.DecodeMisses, st.steps)
	}
}

// TestPredecodeDifferentialGenerated: generated whole programs, run to
// completion unedited, then again under random text edits.
func TestPredecodeDifferentialGenerated(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		img := compile(t, minic.GenProgram(rand.New(rand.NewSource(seed))))
		st := lockstep(t, img, 2_000_000, nil)
		if st.err != nil || !st.fast.Halted {
			t.Fatalf("seed %d: unedited run did not halt cleanly: %v", seed, st.err)
		}
		checkHits(t, "generated", img, st)
		lockstep(t, img, 200_000, randomEdits(rand.New(rand.NewSource(seed)), img, 1.0/500))
	}
}

// TestPredecodeDifferentialWorkloads: a prefix of each paper workload
// and of smc, unedited and under random text edits. The edited runs
// must between them have taken fetch faults from exec removal.
func TestPredecodeDifferentialWorkloads(t *testing.T) {
	faults := 0
	for _, name := range append(progs.Names(), "smc") {
		p, err := progs.ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		img := compile(t, p.Source)
		checkHits(t, name, img, lockstep(t, img, 300_000, nil))
		for seed := int64(1); seed <= 3; seed++ {
			st := lockstep(t, img, 100_000, randomEdits(rand.New(rand.NewSource(seed)), img, 1.0/1000))
			faults += len(st.fetchFaults)
		}
	}
	if faults == 0 {
		t.Error("no edited run took a fetch fault; exec removal is not being exercised")
	}
}

// TestPredecodeDifferentialSMC: the self-modifying workload run to
// completion with its own rewrite schedule — each SMCRewrite adds its
// delta to the offset of the rewritten store in live text at its
// explicit-store count, as codepatch.Image.RewriteStore does.
func TestPredecodeDifferentialSMC(t *testing.T) {
	p := progs.SMC(1)
	prog, err := minic.Compile(p.Source)
	if err != nil {
		t.Fatal(err)
	}
	img, err := asm.Assemble(prog)
	if err != nil {
		t.Fatal(err)
	}
	layout := asm.LayoutAddrs(prog)
	rewrites := progs.SMCRewrites(1)
	siteOf := func(rw progs.SMCRewrite) arch.Addr {
		fi := img.FuncBySym[rw.Func]
		n := 0
		for idx, in := range prog.Funcs[fi].Body {
			if in.Pseudo == asm.PNone && in.Op == isa.SW && !in.Implicit {
				if n == rw.Ordinal {
					return layout[fi][idx]
				}
				n++
			}
		}
		t.Fatalf("no store #%d in %s", rw.Ordinal, rw.Func)
		return 0
	}
	next := 0
	ed := func(_ int, _ arch.Addr, stores uint64) edit {
		if next == len(rewrites) || stores < rewrites[next].AfterStores {
			return nil
		}
		rw := rewrites[next]
		next++
		a := siteOf(rw)
		return func(m *mem.Memory) {
			w, err := m.KernelReadWord(a)
			mustOK(err)
			in := isa.Decode(uint32(w))
			in.Imm += rw.DeltaOff
			mustOK(m.KernelWriteWord(a, arch.Word(isa.Encode(in))))
		}
	}
	st := lockstep(t, img, int(p.Fuel), ed)
	if st.err != nil || !st.fast.Halted {
		t.Fatalf("smc did not halt cleanly: %v", st.err)
	}
	if next != len(rewrites) {
		t.Fatalf("applied %d of %d rewrites", next, len(rewrites))
	}
	// Each rewrite costs the rewritten word one more miss.
	if max := uint64(len(img.Text) + len(rewrites)); st.fast.DecodeMisses > max {
		t.Errorf("smc: %d predecode misses, want at most %d", st.fast.DecodeMisses, max)
	}
}

// TestPredecodeExecRemovalFaults: removing exec from the page the PC
// is on makes the very next fetch fault on both CPUs with the same
// *mem.Fault at the same PC, even though that word is predecoded;
// restoring exec resumes both.
func TestPredecodeExecRemovalFaults(t *testing.T) {
	img := compile(t, progs.BPS(1).Source)
	var pc5000 arch.Addr
	ed := func(i int, pc arch.Addr, _ uint64) edit {
		if i != 5000 {
			return nil
		}
		pc5000 = pc
		page := arch.PageBase(pc, arch.PageSize4K)
		return func(m *mem.Memory) { m.Protect(page, page+arch.PageSize4K, mem.ProtRead) }
	}
	st := lockstep(t, img, 20_000, ed)
	want := mem.Fault{Kind: mem.FaultProtection, Access: mem.AccessFetch, Addr: pc5000}
	if st.err != nil || st.steps != 20_000 || len(st.fetchFaults) != 1 || st.fetchFaults[0] != want {
		t.Fatalf("got faults %v and error %v after %d steps; want exactly %v, then a clean resume",
			st.fetchFaults, st.err, st.steps, want)
	}
}
