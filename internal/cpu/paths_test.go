package cpu

import (
	"errors"
	"strings"
	"testing"

	"edb/internal/arch"
	"edb/internal/fault"
	"edb/internal/isa"
	"edb/internal/mem"
)

// TestRemainingALUOps covers the ALU ops TestALUOps leaves out.
func TestRemainingALUOps(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.ADDI, RD: 1, RS1: 0, Imm: -16},
		{Op: isa.ADDI, RD: 2, RS1: 0, Imm: 2},
		{Op: isa.AND, RD: 3, RS1: 1, RS2: 2},     // 0
		{Op: isa.OR, RD: 4, RS1: 1, RS2: 2},      // -14
		{Op: isa.SLTU, RD: 5, RS1: 2, RS2: 1},    // 1
		{Op: isa.SLL, RD: 6, RS1: 2, RS2: 2},     // 8
		{Op: isa.SRL, RD: 7, RS1: 1, RS2: 2},     // 0x3ffffffc
		{Op: isa.SRA, RD: 8, RS1: 1, RS2: 2},     // -4
		{Op: isa.ANDI, RD: 9, RS1: 1, Imm: 0xff}, // 0xf0
		{Op: isa.ORI, RD: 10, RS1: 2, Imm: 0x10}, // 0x12
		{Op: isa.XORI, RD: 11, RS1: 2, Imm: 3},   // 1
		{Op: isa.SLTI, RD: 12, RS1: 1, Imm: 0},   // 1
		{Op: isa.SLLI, RD: 13, RS1: 2, Imm: 4},   // 32
		{Op: isa.SRLI, RD: 14, RS1: 1, Imm: 28},  // 0xf
		{Op: isa.LUI, RD: 15, Imm: 0x1234},       // 0x12340000
		{Op: isa.SYS},
	})
	run(t, c)
	minus := func(v int32) arch.Word { return arch.Word(v) }
	want := map[isa.Reg]arch.Word{
		3: 0, 4: minus(-14), 5: 1, 6: 8, 7: 0x3ffffffc, 8: minus(-4), 9: 0xf0,
		10: 0x12, 11: 1, 12: 1, 13: 32, 14: 0xf, 15: 0x12340000,
	}
	for r, w := range want {
		if c.Regs[r] != w {
			t.Errorf("r%d = %#x, want %#x", r, c.Regs[r], w)
		}
	}
}

// TestSignedBranches: BLT and BGE, taken and not taken, with the
// taken-branch penalty charged only when taken.
func TestSignedBranches(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.ADDI, RD: 1, RS1: 0, Imm: -1},
		{Op: isa.BLT, RD: 1, RS1: 0, Imm: 1},  // -1 < 0: taken, skips next
		{Op: isa.ADDI, RD: 3, RS1: 0, Imm: 9}, // skipped
		{Op: isa.BGE, RD: 1, RS1: 0, Imm: 1},  // -1 >= 0: not taken
		{Op: isa.ADDI, RD: 4, RS1: 0, Imm: 9},
		{Op: isa.BGE, RD: 0, RS1: 1, Imm: 1},  // 0 >= -1: taken
		{Op: isa.ADDI, RD: 5, RS1: 0, Imm: 9}, // skipped
		{Op: isa.BLT, RD: 0, RS1: 1, Imm: 1},  // 0 < -1: not taken
		{Op: isa.SYS},
	})
	run(t, c)
	if c.Regs[3] != 0 || c.Regs[4] != 9 || c.Regs[5] != 0 {
		t.Errorf("r3,r4,r5 = %d,%d,%d; want 0,9,0", c.Regs[3], c.Regs[4], c.Regs[5])
	}
	// 7 one-cycle instructions retired plus two taken penalties.
	if c.Instret != 7 || c.Cycles != 9 {
		t.Errorf("instret %d cycles %d, want 7 and 9", c.Instret, c.Cycles)
	}
}

// TestHandlerErrorsAreFatal: an error from any handler or host
// function stops the run with an ExecError at the instruction's PC.
func TestHandlerErrorsAreFatal(t *testing.T) {
	boom := errors.New("boom")
	host := arch.TextBase + 0x1000
	cases := []struct {
		name  string
		code  []isa.Inst
		setup func(c *CPU)
		pc    arch.Addr
	}{
		{"fault handler", []isa.Inst{
			{Op: isa.LUI, RD: 1, Imm: int32(arch.GlobalBase >> 16)},
			{Op: isa.SW, RD: 0, RS1: 1},
		}, func(c *CPU) {
			c.Mem.Protect(arch.GlobalBase, arch.GlobalBase+4, mem.ProtRead)
			c.FaultHandler = func(*CPU, *mem.Fault, isa.Inst, arch.Addr) error { return boom }
		}, arch.TextBase + 4},
		{"trap handler", []isa.Inst{{Op: isa.TRAP, Imm: 3}}, func(c *CPU) {
			c.TrapHandler = func(*CPU, int, arch.Addr) error { return boom }
		}, arch.TextBase},
		{"syscall", []isa.Inst{{Op: isa.ADDI}, {Op: isa.SYS, Imm: 9}}, func(c *CPU) {
			c.Syscall = func(*CPU, int) error { return boom }
		}, arch.TextBase + 4},
		{"host function via jal", []isa.Inst{{Op: isa.JAL, Imm: int32(host / 4)}}, func(c *CPU) {
			c.RegisterHostFunc(host, func(*CPU) error { return boom })
		}, arch.TextBase},
		{"host function via jalr", []isa.Inst{
			{Op: isa.LUI, RD: 1, Imm: int32(host >> 16)},
			{Op: isa.ORI, RD: 1, RS1: 1, Imm: int32(host & 0xffff)},
			{Op: isa.JALR, RD: isa.RA, RS1: 1},
		}, func(c *CPU) {
			c.RegisterHostFunc(host, func(*CPU) error { return boom })
		}, arch.TextBase + 8},
	}
	for _, tc := range cases {
		c := load(t, tc.code)
		tc.setup(c)
		err := c.Run(10)
		var ee *ExecError
		if !errors.Is(err, boom) || !errors.As(err, &ee) || ee.PC != tc.pc {
			t.Errorf("%s: got %v, want boom at pc %#x", tc.name, err, uint32(tc.pc))
		}
	}
}

// TestMissingSyscallHandlerFatal: SYS with no handler fails.
func TestMissingSyscallHandlerFatal(t *testing.T) {
	c := load(t, []isa.Inst{{Op: isa.SYS, Imm: 4}})
	c.Syscall = nil
	if err := c.Run(10); err == nil || !strings.Contains(err.Error(), "no syscall handler for sys 4") {
		t.Errorf("got %v", err)
	}
}

// TestHostFuncViaJALR: a linking JALR to a host routine fires OnCall
// and OnRet around it and returns to the instruction after the jump.
func TestHostFuncViaJALR(t *testing.T) {
	host := arch.TextBase + 0x1000
	c := load(t, []isa.Inst{
		{Op: isa.LUI, RD: 1, Imm: int32(host >> 16)},
		{Op: isa.ORI, RD: 1, RS1: 1, Imm: int32(host & 0xffff)},
		{Op: isa.JALR, RD: isa.RA, RS1: 1},
		{Op: isa.SYS},
	})
	ran := false
	c.RegisterHostFunc(host, func(*CPU) error { ran = true; return nil })
	var events []string
	c.OnCall = func(target, pc arch.Addr) { events = append(events, "call") }
	c.OnRet = func(pc arch.Addr) { events = append(events, "ret") }
	run(t, c)
	if !ran || strings.Join(events, ",") != "call,ret" {
		t.Errorf("host ran %v, events %v; want call,ret", ran, events)
	}
}

// TestLoadFaultFatal: a load from unmapped memory fails with the
// memory fault.
func TestLoadFaultFatal(t *testing.T) {
	c := load(t, []isa.Inst{{Op: isa.LW, RD: 1, RS1: 0, Imm: 0}})
	var f *mem.Fault
	if err := c.Run(10); !errors.As(err, &f) || f.Kind != mem.FaultUnmapped || f.Access != mem.AccessRead {
		t.Errorf("got %v, want an unmapped read fault", err)
	}
}

// TestStoreAlignmentFaultBypassesHandler: only protection faults go to
// the fault handler; a misaligned store is fatal even with one.
func TestStoreAlignmentFaultBypassesHandler(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.LUI, RD: 1, Imm: int32(arch.GlobalBase >> 16)},
		{Op: isa.SW, RD: 0, RS1: 1, Imm: 2},
	})
	c.FaultHandler = func(*CPU, *mem.Fault, isa.Inst, arch.Addr) error {
		t.Error("fault handler called for an alignment fault")
		return nil
	}
	var f *mem.Fault
	if err := c.Run(10); !errors.As(err, &f) || f.Kind != mem.FaultAlignment {
		t.Errorf("got %v, want an alignment fault", err)
	}
}

// TestFetchFaults: a misaligned PC, a PC outside any segment, and a PC
// on a page without exec each fail with the memory fault and never
// fill a predecode slot.
func TestFetchFaults(t *testing.T) {
	for _, tc := range []struct {
		pc   arch.Addr
		kind mem.FaultKind
	}{
		{arch.TextBase + 2, mem.FaultAlignment},
		{arch.StackBase, mem.FaultUnmapped},
		{arch.GlobalBase, mem.FaultProtection},
	} {
		c := load(t, []isa.Inst{{Op: isa.SYS}})
		c.PC = tc.pc
		for i := 0; i < 2; i++ {
			err := c.Step()
			var f *mem.Fault
			var ee *ExecError
			if !errors.As(err, &f) || f.Kind != tc.kind || f.Access != mem.AccessFetch || f.Addr != tc.pc ||
				!errors.As(err, &ee) || ee.PC != tc.pc {
				t.Fatalf("pc %#x: got %v, want a %v fetch fault", uint32(tc.pc), err, tc.kind)
			}
		}
		if c.DecodeMisses != 2 || c.Instret != 0 {
			t.Errorf("pc %#x: misses %d instret %d, want 2 and 0", uint32(tc.pc), c.DecodeMisses, c.Instret)
		}
	}
}

// TestIllegalInstructionNeverCached: an illegal word faults with its
// encoding in the message on every fetch, and once rewritten to a
// legal instruction it runs.
func TestIllegalInstructionNeverCached(t *testing.T) {
	c := load(t, []isa.Inst{{Op: isa.ADDI, RD: 2, RS1: 0, Imm: 5}, {Op: isa.SYS}})
	bad := arch.Word(0xfc000000) // opcode 63: past the last opcode
	if err := c.Mem.KernelWriteWord(arch.TextBase, bad); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Step(); err == nil || !strings.Contains(err.Error(), "illegal instruction 0xfc000000") {
			t.Fatalf("fetch %d: got %v", i, err)
		}
	}
	if err := c.Mem.KernelWriteWord(arch.TextBase, arch.Word(isa.Encode(isa.Inst{Op: isa.ADDI, RD: 2, Imm: 5}))); err != nil {
		t.Fatal(err)
	}
	run(t, c)
	if c.ExitCode != 5 {
		t.Errorf("exit code %d after repair, want 5", c.ExitCode)
	}
}

// TestExecOutsideTextNotCached: a data page made executable runs, but
// its words are never predecoded — the memory reports changes to text
// only — so each fetch there misses and a rewrite takes effect.
func TestExecOutsideTextNotCached(t *testing.T) {
	c := load(t, []isa.Inst{{Op: isa.SYS}})
	code := arch.GlobalBase
	loop := []isa.Inst{
		{Op: isa.ADDI, RD: 1, RS1: 1, Imm: 1},
		{Op: isa.BEQ, RD: 0, RS1: 0, Imm: -2},
	}
	for i, in := range loop {
		if err := c.Mem.KernelWriteWord(code+arch.Addr(4*i), arch.Word(isa.Encode(in))); err != nil {
			t.Fatal(err)
		}
	}
	c.Mem.Protect(code, code+arch.PageSize4K, mem.ProtRead|mem.ProtExec)
	c.PC = code
	if err := c.Run(10); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("got %v, want fuel exhaustion", err)
	}
	if c.DecodeMisses != 10 || c.Regs[1] != 5 {
		t.Errorf("misses %d r1 %d, want 10 and 5", c.DecodeMisses, c.Regs[1])
	}
	// The memory does not report this rewrite (it is outside text);
	// none is needed, since the word was never cached.
	if err := c.Mem.WriteWord(code, arch.Word(isa.Encode(isa.Inst{Op: isa.ADDI, RD: 1, RS1: 1, Imm: 100}))); err == nil {
		t.Fatal("write to an r-x page succeeded")
	}
	if err := c.Mem.KernelWriteWord(code, arch.Word(isa.Encode(isa.Inst{Op: isa.ADDI, RD: 1, RS1: 1, Imm: 100}))); err != nil {
		t.Fatal(err)
	}
	c.PC = code
	if err := c.Step(); err != nil || c.Regs[1] != 105 {
		t.Errorf("after rewrite: err %v r1 %d, want 105", err, c.Regs[1])
	}
}

// TestPredecodeInvalidation: a text word runs from its slot after the
// first fetch; rewriting it, or removing exec from its page, empties
// the slot, and Protect ranges starting below text are clipped.
func TestPredecodeInvalidation(t *testing.T) {
	c := load(t, []isa.Inst{
		{Op: isa.ADDI, RD: 1, RS1: 1, Imm: 1},
		{Op: isa.BEQ, RD: 0, RS1: 0, Imm: -2},
	})
	if err := c.Run(100); !errors.Is(err, ErrFuelExhausted) {
		t.Fatal(err)
	}
	if c.DecodeMisses != 2 {
		t.Fatalf("misses %d after 100 steps of a 2-word loop, want 2", c.DecodeMisses)
	}
	if err := c.Mem.KernelWriteWord(arch.TextBase, arch.Word(isa.Encode(isa.Inst{Op: isa.ADDI, RD: 1, RS1: 1, Imm: 10}))); err != nil {
		t.Fatal(err)
	}
	before := c.Regs[1]
	if err := c.Run(2); !errors.Is(err, ErrFuelExhausted) {
		t.Fatal(err)
	}
	if c.Regs[1] != before+10 || c.DecodeMisses != 3 {
		t.Errorf("after rewrite: r1 += %d, misses %d; want 10 and 3", c.Regs[1]-before, c.DecodeMisses)
	}
	c.Mem.Protect(0, arch.TextBase+4, mem.ProtRead)
	var f *mem.Fault
	if err := c.Run(2); !errors.As(err, &f) || f.Access != mem.AccessFetch || f.Addr != arch.TextBase {
		t.Fatalf("after exec removal: got %v, want a fetch fault at text base", err)
	}
	c.Mem.Protect(0, arch.TextBase+4, mem.ProtRead|mem.ProtExec)
	if err := c.Run(2); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("after exec restore: %v", err)
	}
}

// TestInjectedFuelExhaustion: an armed SiteCPUFuel plan makes Run
// report fuel exhaustion carrying the typed fault before executing
// anything.
func TestInjectedFuelExhaustion(t *testing.T) {
	c := load(t, []isa.Inst{{Op: isa.SYS}})
	c.FaultKey = "cpu-paths-test"
	fault.Activate(fault.NewPlan(1, fault.Rule{Site: fault.SiteCPUFuel, Key: c.FaultKey, Kind: fault.Transient, Times: 1}))
	defer fault.Deactivate()
	err := c.Run(10)
	if !errors.Is(err, ErrFuelExhausted) || !fault.IsInjected(err) || c.Instret != 0 {
		t.Fatalf("got %v after %d instructions, want injected fuel exhaustion before any", err, c.Instret)
	}
	if err := c.Run(10); err != nil || !c.Halted {
		t.Fatalf("second run: %v", err)
	}
}

// TestExecErrorFormat: the error names the PC and unwraps to its cause.
func TestExecErrorFormat(t *testing.T) {
	cause := errors.New("cause")
	e := &ExecError{PC: 0x1234, Err: cause}
	if e.Error() != "at pc 0x1234: cause" || !errors.Is(e, cause) {
		t.Errorf("Error() = %q", e.Error())
	}
}
