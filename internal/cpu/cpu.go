// Package cpu implements the interpreter for the simulated machine: a
// single-threaded 32-bit RISC core with cycle accounting calibrated to a
// 40 MHz SPARCstation-2-class clock.
//
// The core exposes the observation points the paper's experiment needs:
//
//   - OnStore fires for every executed store instruction (phase-1 trace
//     generation and the software WMS strategies hang off this).
//   - OnCall / OnRet fire on the canonical call/return instruction
//     patterns (the tracer installs and removes local-variable monitors
//     on function boundaries, as the paper does).
//   - FaultHandler receives write-protection faults (the VirtualMemory
//     WMS registers here, like a SIGSEGV handler under SunOS).
//   - TrapHandler receives TRAP instructions (the TrapPatch WMS).
//   - Host functions let the kernel provide runtime services that are
//     invoked with an ordinary JAL, which is how the CodePatch check
//     subroutine is modelled.
//
// Fetch goes through a predecode table with one slot per text word
// (DESIGN §18). A slot is filled only by a fetch that passed every
// check of mem.FetchWord and decoded to a legal instruction; the
// memory reports every write into text and every protection change
// overlapping it, and the CPU clears the affected slots, so a hit
// always runs the instruction a checked fetch would run now. Anything
// else — an empty slot, a misaligned PC, a PC outside text — takes the
// checked FetchWord → Decode path and fails exactly as it always has.
package cpu

import (
	"fmt"

	"edb/internal/arch"
	"edb/internal/fault"
	"edb/internal/isa"
	"edb/internal/mem"
)

// ExecError wraps a fatal execution error with the PC it occurred at.
type ExecError struct {
	PC  arch.Addr
	Err error
}

// Error implements the error interface.
func (e *ExecError) Error() string {
	return fmt.Sprintf("at pc %#x: %v", uint32(e.PC), e.Err)
}

// Unwrap exposes the underlying cause.
func (e *ExecError) Unwrap() error { return e.Err }

// ErrFuelExhausted is returned by Run when the instruction budget is
// consumed before the program halts.
var ErrFuelExhausted = fmt.Errorf("cpu: instruction budget exhausted")

// CPU is the simulated processor core.
type CPU struct {
	Mem  *mem.Memory
	Regs [isa.NumRegs]arch.Word
	PC   arch.Addr

	// Cycles is the simulated cycle clock, including kernel service time
	// charged via ChargeCycles.
	Cycles uint64
	// Instret counts retired instructions.
	Instret uint64
	// Stores counts executed store instructions.
	Stores uint64

	Halted   bool
	ExitCode int32

	// FaultKey labels this core's fault-injection invocations
	// (internal/fault.SiteCPUFuel): hosts that run many programs — the
	// tracer, the experiment pipeline — set it to the program name so
	// chaos plans can target one benchmark deterministically. Empty
	// matches only unkeyed rules' wildcards.
	FaultKey string

	// Syscall handles SYS instructions. Arguments live in r2..r5, the
	// result in r1 by convention.
	Syscall func(c *CPU, code int) error
	// TrapHandler handles TRAP instructions; pc is the address of the
	// trap instruction. The handler must arrange continuation (normally
	// by leaving the PC advance to the CPU).
	TrapHandler func(c *CPU, code int, pc arch.Addr) error
	// FaultHandler handles write-protection faults raised by stores. It
	// receives the faulting instruction and its PC, and must complete or
	// emulate the access; returning nil resumes execution after the
	// store. A nil handler makes protection faults fatal.
	FaultHandler func(c *CPU, f *mem.Fault, in isa.Inst, pc arch.Addr) error

	// OnStore is invoked after each store instruction completes, with
	// the written range and the store's PC.
	OnStore func(ba, ea arch.Addr, pc arch.Addr)
	// OnCall is invoked when a call executes (JAL, or JALR linking RA),
	// with the callee entry and call-site PC.
	OnCall func(target, pc arch.Addr)
	// OnRet is invoked when a return executes (JALR r0, ra).
	OnRet func(pc arch.Addr)

	// DecodeMisses counts fetches that missed the predecode table and
	// took the checked FetchWord → Decode path: first executions,
	// re-fetches after text changed, and every failing fetch.
	DecodeMisses uint64

	// pre[i] predecodes the text word at TextBase + 4i; see fetch.
	pre       []slot
	hostFuncs map[arch.Addr]func(*CPU) error
}

// slot is one predecoded text word. The zero slot (Op ILL) is empty:
// illegal words are never cached, so they fault on every fetch.
type slot struct {
	in   isa.Inst
	cost uint32
}

// maxSlots covers the whole text segment.
const maxSlots = int(arch.TextLimit-arch.TextBase) / arch.WordBytes

// New returns a CPU attached to m with all state zeroed. The CPU
// watches m's text for changes (mem.Memory.ObserveText), so Mem must
// not be replaced afterwards.
func New(m *mem.Memory) *CPU {
	c := &CPU{Mem: m, hostFuncs: make(map[arch.Addr]func(*CPU) error)}
	m.ObserveText(c.invalidate)
	return c
}

// invalidate empties the predecode slots of the text words in
// [ba, ea). The memory calls it on every text write and on every
// protection change overlapping text.
func (c *CPU) invalidate(ba, ea arch.Addr) {
	if ea <= arch.TextBase {
		return
	}
	lo := int(max(ba, arch.TextBase)-arch.TextBase) / arch.WordBytes
	hi := min(int(ea-arch.TextBase+arch.WordBytes-1)/arch.WordBytes, len(c.pre))
	if lo < hi {
		clear(c.pre[lo:hi])
	}
}

// fetch is the checked fetch behind a predecode miss: FetchWord's
// alignment, segment and exec checks, then Decode. A legal instruction
// fetched from text fills its slot; words outside text are never
// cached, because the memory reports changes to text only.
func (c *CPU) fetch(pc arch.Addr) (isa.Inst, uint64, error) {
	c.DecodeMisses++
	raw, err := c.Mem.FetchWord(pc)
	if err != nil {
		return isa.Inst{}, 0, &ExecError{PC: pc, Err: err}
	}
	in := isa.Decode(uint32(raw))
	if !in.Op.Valid() {
		return isa.Inst{}, 0, &ExecError{PC: pc, Err: fmt.Errorf("illegal instruction %#08x", raw)}
	}
	cost := in.Cost()
	if pc < arch.TextLimit {
		i := int(pc-arch.TextBase) / arch.WordBytes
		if i >= len(c.pre) {
			n := min(max(i+1, 2*len(c.pre), 1024), maxSlots)
			c.pre = append(c.pre, make([]slot, n-len(c.pre))...)
		}
		c.pre[i] = slot{in: in, cost: uint32(cost)}
	}
	return in, cost, nil
}

// RegisterHostFunc installs a host-implemented routine at text address a.
// Jumping to a executes fn and then returns to the caller (the address
// in RA), charging whatever cycles fn adds via ChargeCycles.
func (c *CPU) RegisterHostFunc(a arch.Addr, fn func(*CPU) error) {
	c.hostFuncs[a] = fn
}

// hostFunc returns the host routine registered at a, or nil. Most
// machines register none, so the map lookup is skipped for them.
func (c *CPU) hostFunc(a arch.Addr) func(*CPU) error {
	if len(c.hostFuncs) == 0 {
		return nil
	}
	return c.hostFuncs[a]
}

// ChargeCycles adds kernel or device service time to the cycle clock.
func (c *CPU) ChargeCycles(n uint64) { c.Cycles += n }

// setReg writes a register, preserving the hard-wired zero register.
func (c *CPU) setReg(r isa.Reg, v arch.Word) {
	if r != isa.R0 {
		c.Regs[r] = v
	}
}

// Step executes one instruction. It returns a non-nil error only for
// fatal conditions (unhandled faults, illegal instructions).
func (c *CPU) Step() error {
	if c.Halted {
		return nil
	}
	return c.exec(c.Instret + 1)
}

// exec executes instructions until the program halts, an instruction
// fails, or Instret reaches limit. Step and Run share it, so a run
// pays no call per instruction.
func (c *CPU) exec(limit uint64) error {
	for !c.Halted && c.Instret < limit {
		pc := c.PC
		var in isa.Inst
		var cost uint64
		if i := uint32(pc-arch.TextBase) / arch.WordBytes; pc%arch.WordBytes == 0 && i < uint32(len(c.pre)) && c.pre[i].in.Op != isa.ILL {
			s := &c.pre[i]
			in, cost = s.in, uint64(s.cost)
		} else {
			var err error
			if in, cost, err = c.fetch(pc); err != nil {
				return err
			}
		}
		c.Cycles += cost
		c.Instret++
		next := pc + arch.WordBytes

		switch in.Op {
		case isa.ADD:
			c.setReg(in.RD, c.Regs[in.RS1]+c.Regs[in.RS2])
		case isa.SUB:
			c.setReg(in.RD, c.Regs[in.RS1]-c.Regs[in.RS2])
		case isa.MUL:
			c.setReg(in.RD, arch.Word(int32(c.Regs[in.RS1])*int32(c.Regs[in.RS2])))
		case isa.DIV:
			d := int32(c.Regs[in.RS2])
			if d == 0 {
				return &ExecError{PC: pc, Err: fmt.Errorf("division by zero")}
			}
			c.setReg(in.RD, arch.Word(int32(c.Regs[in.RS1])/d))
		case isa.REM:
			d := int32(c.Regs[in.RS2])
			if d == 0 {
				return &ExecError{PC: pc, Err: fmt.Errorf("division by zero")}
			}
			c.setReg(in.RD, arch.Word(int32(c.Regs[in.RS1])%d))
		case isa.AND:
			c.setReg(in.RD, c.Regs[in.RS1]&c.Regs[in.RS2])
		case isa.OR:
			c.setReg(in.RD, c.Regs[in.RS1]|c.Regs[in.RS2])
		case isa.XOR:
			c.setReg(in.RD, c.Regs[in.RS1]^c.Regs[in.RS2])
		case isa.SLT:
			c.setReg(in.RD, boolWord(int32(c.Regs[in.RS1]) < int32(c.Regs[in.RS2])))
		case isa.SLTU:
			c.setReg(in.RD, boolWord(c.Regs[in.RS1] < c.Regs[in.RS2]))
		case isa.SLL:
			c.setReg(in.RD, c.Regs[in.RS1]<<(c.Regs[in.RS2]&31))
		case isa.SRL:
			c.setReg(in.RD, c.Regs[in.RS1]>>(c.Regs[in.RS2]&31))
		case isa.SRA:
			c.setReg(in.RD, arch.Word(int32(c.Regs[in.RS1])>>(c.Regs[in.RS2]&31)))

		case isa.ADDI:
			c.setReg(in.RD, c.Regs[in.RS1]+arch.Word(in.Imm))
		case isa.ANDI:
			c.setReg(in.RD, c.Regs[in.RS1]&arch.Word(uint16(in.Imm)))
		case isa.ORI:
			c.setReg(in.RD, c.Regs[in.RS1]|arch.Word(uint16(in.Imm)))
		case isa.XORI:
			c.setReg(in.RD, c.Regs[in.RS1]^arch.Word(uint16(in.Imm)))
		case isa.SLTI:
			c.setReg(in.RD, boolWord(int32(c.Regs[in.RS1]) < in.Imm))
		case isa.SLLI:
			c.setReg(in.RD, c.Regs[in.RS1]<<(uint32(in.Imm)&31))
		case isa.SRLI:
			c.setReg(in.RD, c.Regs[in.RS1]>>(uint32(in.Imm)&31))
		case isa.SRAI:
			c.setReg(in.RD, arch.Word(int32(c.Regs[in.RS1])>>(uint32(in.Imm)&31)))
		case isa.LUI:
			c.setReg(in.RD, arch.Word(uint16(in.Imm))<<16)

		case isa.LW:
			a := c.Regs[in.RS1] + arch.Word(in.Imm)
			w, err := c.Mem.ReadWord(arch.Addr(a))
			if err != nil {
				return &ExecError{PC: pc, Err: err}
			}
			c.setReg(in.RD, w)
		case isa.SW:
			a := arch.Addr(c.Regs[in.RS1] + arch.Word(in.Imm))
			if err := c.Mem.WriteWord(a, c.Regs[in.RD]); err != nil {
				f, ok := err.(*mem.Fault)
				if !ok || f.Kind != mem.FaultProtection || c.FaultHandler == nil {
					return &ExecError{PC: pc, Err: err}
				}
				if herr := c.FaultHandler(c, f, in, pc); herr != nil {
					return &ExecError{PC: pc, Err: herr}
				}
			}
			c.Stores++
			if c.OnStore != nil {
				c.OnStore(a, a+arch.WordBytes, pc)
			}

		case isa.BEQ:
			if c.Regs[in.RD] == c.Regs[in.RS1] {
				next = branchTarget(pc, in.Imm)
				c.Cycles += isa.BranchTakenPenalty
			}
		case isa.BNE:
			if c.Regs[in.RD] != c.Regs[in.RS1] {
				next = branchTarget(pc, in.Imm)
				c.Cycles += isa.BranchTakenPenalty
			}
		case isa.BLT:
			if int32(c.Regs[in.RD]) < int32(c.Regs[in.RS1]) {
				next = branchTarget(pc, in.Imm)
				c.Cycles += isa.BranchTakenPenalty
			}
		case isa.BGE:
			if int32(c.Regs[in.RD]) >= int32(c.Regs[in.RS1]) {
				next = branchTarget(pc, in.Imm)
				c.Cycles += isa.BranchTakenPenalty
			}

		case isa.JAL:
			target := arch.Addr(uint32(in.Imm) * arch.WordBytes)
			c.setReg(isa.RA, arch.Word(next))
			if c.OnCall != nil {
				c.OnCall(target, pc)
			}
			if h := c.hostFunc(target); h != nil {
				if err := h(c); err != nil {
					return &ExecError{PC: pc, Err: err}
				}
				// Host functions return immediately to the caller: `next`
				// already holds the instruction after the jump.
				if c.OnRet != nil {
					c.OnRet(pc)
				}
			} else {
				next = target
			}
		case isa.JALR:
			target := arch.Addr(c.Regs[in.RS1] + arch.Word(in.Imm))
			isRet := in.RD == isa.R0 && in.RS1 == isa.RA && in.Imm == 0
			c.setReg(in.RD, arch.Word(next))
			if isRet {
				if c.OnRet != nil {
					c.OnRet(pc)
				}
			} else if in.RD == isa.RA && c.OnCall != nil {
				c.OnCall(target, pc)
			}
			if h := c.hostFunc(target); h != nil {
				if err := h(c); err != nil {
					return &ExecError{PC: pc, Err: err}
				}
				if c.OnRet != nil && !isRet && in.RD == isa.RA {
					c.OnRet(pc)
				}
			} else {
				next = target
			}

		case isa.SYS:
			if c.Syscall == nil {
				return &ExecError{PC: pc, Err: fmt.Errorf("no syscall handler for sys %d", in.Imm)}
			}
			if err := c.Syscall(c, int(in.Imm)); err != nil {
				return &ExecError{PC: pc, Err: err}
			}
		case isa.TRAP:
			if c.TrapHandler == nil {
				return &ExecError{PC: pc, Err: fmt.Errorf("unhandled trap %d", in.Imm)}
			}
			if err := c.TrapHandler(c, int(in.Imm), pc); err != nil {
				return &ExecError{PC: pc, Err: err}
			}

		default:
			return &ExecError{PC: pc, Err: fmt.Errorf("unimplemented op %v", in.Op)}
		}

		if !c.Halted {
			c.PC = next
		}
	}
	return nil
}

// Run executes until the program halts or fuel instructions have
// retired. It returns ErrFuelExhausted if the budget runs out.
//
// Run is an injection point (fault.SiteCPUFuel): an armed chaos plan
// makes it report fuel exhaustion immediately, modelling a run that
// hits its instruction budget. The returned error carries both
// ErrFuelExhausted and the typed *fault.Error so callers can classify
// it for retry. With no active plan the check is one atomic load per
// Run call — never per instruction.
func (c *CPU) Run(fuel uint64) error {
	if ferr := fault.Inject(fault.SiteCPUFuel, c.FaultKey); ferr != nil {
		return &ExecError{PC: c.PC, Err: fmt.Errorf("%w: %w", ErrFuelExhausted, ferr)}
	}
	if err := c.exec(c.Instret + fuel); err != nil {
		return err
	}
	if !c.Halted {
		return &ExecError{PC: c.PC, Err: ErrFuelExhausted}
	}
	return nil
}

// Halt stops execution with the given exit code (used by the kernel's
// exit syscall).
func (c *CPU) Halt(code int32) {
	c.Halted = true
	c.ExitCode = code
}

// Seconds returns the simulated wall-clock time so far.
func (c *CPU) Seconds() float64 { return arch.CyclesToSeconds(c.Cycles) }

func branchTarget(pc arch.Addr, imm int32) arch.Addr {
	return pc + arch.WordBytes + arch.Addr(imm*arch.WordBytes)
}

func boolWord(b bool) arch.Word {
	if b {
		return 1
	}
	return 0
}
