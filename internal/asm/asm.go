// Package asm provides the symbolic assembly layer of the toolchain:
// programs made of functions with labels, pseudo-instructions, and data
// symbols, plus a two-pass assembler that lays them out into a loadable
// Image.
//
// This is the representation the paper's software WMS strategies rewrite
// "at compile time": TrapPatch swaps every store for a TRAP, and
// CodePatch inserts an address-materialising instruction plus a call to
// the check subroutine before every store. Both operate on []Inst before
// assembly (see internal/core/trappatch and internal/core/codepatch).
package asm

import (
	"fmt"

	"edb/internal/arch"
	"edb/internal/isa"
)

// Pseudo identifies a pseudo-instruction that the assembler expands.
type Pseudo int

// Pseudo-instruction kinds. PNone marks a real ISA instruction.
const (
	PNone Pseudo = iota
	// PLi rd, Imm — load a 32-bit immediate (1 word if it fits the
	// 16-bit immediate, else lui+ori).
	PLi
	// PLa rd, Sym+Imm — load the address of data symbol Sym plus offset
	// (always 2 words).
	PLa
	// PCall Label — call the named function (1 word).
	PCall
	// PRet — return (1 word).
	PRet
	// PJmp Label — unconditional branch to a local label (1 word).
	PJmp
)

// Inst is one symbolic instruction. Real instructions use Op and the
// register/immediate fields; branch-class instructions take their target
// from Label. Pseudo-instructions are expanded by the assembler.
type Inst struct {
	Pseudo Pseudo
	Op     isa.Op
	RD     isa.Reg
	RS1    isa.Reg
	RS2    isa.Reg
	Imm    int32
	Label  string // branch target label, or callee name for PCall
	Sym    string // data symbol for PLa

	// Implicit marks compiler-generated bookkeeping stores (saved RA/FP,
	// spills). The paper's event trace excludes implicit writes; the
	// tracer consults this flag via Image.ImplicitStores.
	Implicit bool

	// CheckElided marks a store whose CodePatch check was statically
	// eliminated by the optimizer (internal/analysis): a dominating check
	// of a provably-equal address covers it. The assembler records these
	// store addresses in Image.ElidedChecks so the runtime can keep the
	// notification sequence identical to an unoptimized patch.
	CheckElided bool
}

// Words returns the encoded size of the (possibly pseudo) instruction
// in 32-bit words. Pseudo-instruction widths are part of the layout
// contract: PLa is always 2 words, PLi is 1 or 2 depending on whether
// the immediate fits 16 bits, everything else is 1.
func (in Inst) Words() int {
	switch in.Pseudo {
	case PLa:
		return 2
	case PLi:
		if isa.FitsImm16(in.Imm) {
			return 1
		}
		return 2
	default:
		return 1
	}
}

// BodyWords returns the encoded size of a function body in words — the
// sum of Words() over the body. The patchers (codepatch, trappatch) use
// it for code-expansion accounting; the analysis layer uses it for
// address layout.
func BodyWords(body []Inst) int {
	n := 0
	for _, in := range body {
		n += in.Words()
	}
	return n
}

// Label is pseudo-item helper: functions carry explicit label positions.
// Labels are attached to instruction indices via Func.Labels.

// Func is one function: a name, a body, and the frame metadata the
// tracer needs to install monitors for locals on function boundaries.
type Func struct {
	Name string
	Body []Inst
	// Labels maps a local label to the index in Body it precedes. A
	// label equal to len(Body) refers to the end of the function.
	Labels map[string]int

	// Locals describes the automatic variables of the function's frame.
	Locals []Local
	// Statics lists the names of data symbols that are function-scoped
	// statics (they live in the global segment but belong to this
	// function's AllLocalInFunc session).
	Statics []string
	// FrameWords is the frame size in words (including saved RA/FP).
	FrameWords int
}

// Local describes one automatic variable in a frame.
type Local struct {
	Name string
	// Offset is the distance in bytes below the frame pointer of the
	// variable's *highest* word: the variable occupies
	// [fp-Offset, fp-Offset+4*SizeWords).
	Offset int32
	// SizeWords is the variable size in words (arrays > 1).
	SizeWords int
}

// Global is one data symbol in the global segment.
type Global struct {
	Name      string
	SizeWords int
	Init      []arch.Word // len <= SizeWords; rest zero
}

// Program is a complete symbolic program.
type Program struct {
	Funcs   []*Func
	Globals []Global
	// Entry names the function execution starts in (default "main").
	Entry string
}

// AddFunc appends a function and returns it for body construction.
func (p *Program) AddFunc(name string) *Func {
	f := &Func{Name: name, Labels: make(map[string]int)}
	p.Funcs = append(p.Funcs, f)
	return f
}

// FindFunc returns the function with the given name, or nil.
func (p *Program) FindFunc(name string) *Func {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Emit appends an instruction to the body.
func (f *Func) Emit(in Inst) { f.Body = append(f.Body, in) }

// Mark places a label at the current end of the body.
func (f *Func) Mark(label string) { f.Labels[label] = len(f.Body) }

// FuncInfo is the per-function metadata carried into the Image.
type FuncInfo struct {
	Name       string
	Entry      arch.Addr
	End        arch.Addr // one past the last instruction
	Locals     []Local
	Statics    []string
	FrameWords int
}

// Image is an assembled, loadable program.
type Image struct {
	Entry arch.Addr
	// Text holds the encoded instruction stream starting at TextBase.
	Text []uint32
	// Funcs lists function metadata in layout order.
	Funcs []FuncInfo
	// FuncBySym maps function name to its index in Funcs.
	FuncBySym map[string]int
	// Data maps each data symbol to its address range in the global
	// segment.
	Data map[string]arch.Range
	// DataInit holds initialised words to copy at load time.
	DataInit map[arch.Addr]arch.Word
	// GlobalEnd is the first free address after the laid-out globals.
	GlobalEnd arch.Addr
	// ImplicitStores is the set of store-instruction addresses that are
	// compiler bookkeeping (excluded from the event trace).
	ImplicitStores map[arch.Addr]bool
	// ElidedChecks is the set of store-instruction addresses whose
	// CodePatch check was statically eliminated (Inst.CheckElided); the
	// CodePatch runtime consults it to deliver the same notifications an
	// unoptimized patch would.
	ElidedChecks map[arch.Addr]bool
}

// FuncAt returns the function containing text address a, or nil.
func (img *Image) FuncAt(a arch.Addr) *FuncInfo {
	if i := img.FuncIndexAt(a); i >= 0 {
		return &img.Funcs[i]
	}
	return nil
}

// FuncIndexAt returns the index in Funcs of the function containing
// text address a, or -1.
func (img *Image) FuncIndexAt(a arch.Addr) int {
	// Binary search over the sorted (by Entry) Funcs slice.
	lo, hi := 0, len(img.Funcs)
	for lo < hi {
		mid := (lo + hi) / 2
		if img.Funcs[mid].End <= a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(img.Funcs) && a >= img.Funcs[lo].Entry && a < img.Funcs[lo].End {
		return lo
	}
	return -1
}

// TextRange returns the address range occupied by the text segment.
func (img *Image) TextRange() arch.Range {
	return arch.Range{BA: arch.TextBase, EA: arch.TextBase + arch.Addr(len(img.Text)*arch.WordBytes)}
}

// CountStores returns the number of store instructions and total
// instructions in the image, the inputs to the paper's code-expansion
// estimate for CodePatch (§8: two extra instructions per write).
func (img *Image) CountStores() (stores, total int) {
	for _, w := range img.Text {
		in := isa.Decode(w)
		if isa.IsStore(in.Op) {
			stores++
		}
		total++
	}
	return stores, total
}

// Assemble lays out the program: functions in order starting at
// TextBase, globals word-aligned starting at GlobalBase, pseudo
// expansion, and label/symbol resolution.
func Assemble(p *Program) (*Image, error) {
	img := &Image{
		FuncBySym:      make(map[string]int),
		Data:           make(map[string]arch.Range),
		DataInit:       make(map[arch.Addr]arch.Word),
		ImplicitStores: make(map[arch.Addr]bool),
		ElidedChecks:   make(map[arch.Addr]bool),
	}

	// Lay out globals.
	addr := arch.GlobalBase
	for _, g := range p.Globals {
		if g.SizeWords <= 0 {
			return nil, fmt.Errorf("asm: global %q has size %d", g.Name, g.SizeWords)
		}
		if _, dup := img.Data[g.Name]; dup {
			return nil, fmt.Errorf("asm: duplicate global %q", g.Name)
		}
		r := arch.Range{BA: addr, EA: addr + arch.Addr(g.SizeWords*arch.WordBytes)}
		if r.EA > arch.GlobalLimit {
			return nil, fmt.Errorf("asm: global segment overflow at %q", g.Name)
		}
		img.Data[g.Name] = r
		for i, w := range g.Init {
			if i >= g.SizeWords {
				return nil, fmt.Errorf("asm: global %q init longer than size", g.Name)
			}
			img.DataInit[r.BA+arch.Addr(i*arch.WordBytes)] = w
		}
		addr = r.EA
	}
	img.GlobalEnd = addr

	// Pass 1: assign addresses to functions and labels.
	funcEntry := make(map[string]arch.Addr)
	labelAddr := make([]map[string]arch.Addr, len(p.Funcs))
	layout := LayoutAddrs(p)
	pc := arch.TextBase
	for fi, f := range p.Funcs {
		if _, dup := funcEntry[f.Name]; dup {
			return nil, fmt.Errorf("asm: duplicate function %q", f.Name)
		}
		funcEntry[f.Name] = pc
		entry := pc
		labelAddr[fi] = make(map[string]arch.Addr)
		instAddr := layout[fi]
		a := instAddr[len(f.Body)]
		for label, idx := range f.Labels {
			if idx < 0 || idx > len(f.Body) {
				return nil, fmt.Errorf("asm: %s: label %q out of range", f.Name, label)
			}
			labelAddr[fi][label] = instAddr[idx]
		}
		pc = a
		img.Funcs = append(img.Funcs, FuncInfo{
			Name: f.Name, Entry: entry, End: pc,
			Locals: f.Locals, Statics: f.Statics, FrameWords: f.FrameWords,
		})
		img.FuncBySym[f.Name] = fi
		if pc >= arch.TextLimit {
			return nil, fmt.Errorf("asm: text segment overflow in %q", f.Name)
		}
	}

	// Entry point.
	entryName := p.Entry
	if entryName == "" {
		entryName = "main"
	}
	e, ok := funcEntry[entryName]
	if !ok {
		return nil, fmt.Errorf("asm: entry function %q not defined", entryName)
	}
	img.Entry = e

	// Pass 2: encode.
	var curElided bool
	emit := func(in isa.Inst, implicit bool) {
		a := arch.TextBase + arch.Addr(len(img.Text)*arch.WordBytes)
		if implicit && in.Op == isa.SW {
			img.ImplicitStores[a] = true
		}
		if curElided && in.Op == isa.SW {
			img.ElidedChecks[a] = true
		}
		img.Text = append(img.Text, isa.Encode(in))
	}
	for fi, f := range p.Funcs {
		for i, in := range f.Body {
			here := arch.TextBase + arch.Addr(len(img.Text)*arch.WordBytes)
			curElided = in.CheckElided
			switch in.Pseudo {
			case PLi:
				v := uint32(in.Imm)
				if isa.FitsImm16(in.Imm) {
					emit(isa.Inst{Op: isa.ADDI, RD: in.RD, RS1: isa.R0, Imm: in.Imm}, in.Implicit)
				} else {
					emit(isa.Inst{Op: isa.LUI, RD: in.RD, Imm: int32(v >> 16)}, in.Implicit)
					emit(isa.Inst{Op: isa.ORI, RD: in.RD, RS1: in.RD, Imm: int32(v & 0xffff)}, in.Implicit)
				}
			case PLa:
				r, ok := img.Data[in.Sym]
				if !ok {
					return nil, fmt.Errorf("asm: %s: unknown data symbol %q", f.Name, in.Sym)
				}
				v := uint32(r.BA) + uint32(in.Imm)
				emit(isa.Inst{Op: isa.LUI, RD: in.RD, Imm: int32(v >> 16)}, in.Implicit)
				emit(isa.Inst{Op: isa.ORI, RD: in.RD, RS1: in.RD, Imm: int32(v & 0xffff)}, in.Implicit)
			case PCall:
				target, ok := funcEntry[in.Label]
				if !ok {
					return nil, fmt.Errorf("asm: %s: call to undefined function %q", f.Name, in.Label)
				}
				emit(isa.Inst{Op: isa.JAL, Imm: int32(target / arch.WordBytes)}, false)
			case PRet:
				emit(isa.Inst{Op: isa.JALR, RD: isa.R0, RS1: isa.RA, Imm: 0}, false)
			case PJmp:
				target, ok := labelAddr[fi][in.Label]
				if !ok {
					return nil, fmt.Errorf("asm: %s: undefined label %q", f.Name, in.Label)
				}
				off := wordOffset(here, target)
				emit(isa.Inst{Op: isa.BEQ, RD: isa.R0, RS1: isa.R0, Imm: off}, false)
			case PNone:
				enc := isa.Inst{Op: in.Op, RD: in.RD, RS1: in.RS1, RS2: in.RS2, Imm: in.Imm}
				if isa.IsBranch(in.Op) && in.Label != "" {
					target, ok := labelAddr[fi][in.Label]
					if !ok {
						return nil, fmt.Errorf("asm: %s: undefined label %q", f.Name, in.Label)
					}
					enc.Imm = wordOffset(here, target)
				}
				if !enc.Op.Valid() {
					return nil, fmt.Errorf("asm: %s: instruction %d has invalid op", f.Name, i)
				}
				emit(enc, in.Implicit)
			default:
				return nil, fmt.Errorf("asm: %s: unknown pseudo %d", f.Name, in.Pseudo)
			}
		}
	}
	return img, nil
}

// LayoutAddrs computes, without assembling, the text address every body
// instruction will occupy: result[fi][i] is the address of p.Funcs[fi].
// Body[i], with one extra entry per function for the end-of-body
// position. This is exactly the pass-1 layout Assemble performs; the
// analysis layer uses it to map body indices of an unassembled program
// to the addresses its image will have.
func LayoutAddrs(p *Program) [][]arch.Addr {
	out := make([][]arch.Addr, len(p.Funcs))
	pc := arch.TextBase
	for fi, f := range p.Funcs {
		addrs := make([]arch.Addr, len(f.Body)+1)
		for i, in := range f.Body {
			addrs[i] = pc
			pc += arch.Addr(in.Words() * arch.WordBytes)
		}
		addrs[len(f.Body)] = pc
		out[fi] = addrs
	}
	return out
}

// wordOffset computes the branch immediate from the branch at `from` to
// `target` (relative to the instruction after the branch).
func wordOffset(from, target arch.Addr) int32 {
	return (int32(target) - int32(from) - arch.WordBytes) / arch.WordBytes
}

// Disassemble renders the image's text segment for debugging.
func (img *Image) Disassemble() string {
	out := ""
	for i, w := range img.Text {
		a := arch.TextBase + arch.Addr(i*arch.WordBytes)
		if f := img.FuncAt(a); f != nil && f.Entry == a {
			out += fmt.Sprintf("%s:\n", f.Name)
		}
		out += fmt.Sprintf("  %08x: %s\n", uint32(a), isa.Decode(w))
	}
	return out
}

// String disassembles the symbolic instruction (pseudo-aware; branch
// targets render their labels). Used by the analysis layer's
// diagnostics and the CFG dumper.
func (in Inst) String() string {
	switch in.Pseudo {
	case PLi:
		return fmt.Sprintf("li   r%d, %d", in.RD, in.Imm)
	case PLa:
		if in.Imm != 0 {
			return fmt.Sprintf("la   r%d, %s%+d", in.RD, in.Sym, in.Imm)
		}
		return fmt.Sprintf("la   r%d, %s", in.RD, in.Sym)
	case PCall:
		return fmt.Sprintf("call %s", in.Label)
	case PRet:
		return "ret"
	case PJmp:
		return fmt.Sprintf("jmp  %s", in.Label)
	}
	if isa.IsBranch(in.Op) && in.Label != "" {
		return fmt.Sprintf("%-4s r%d, r%d, %s", in.Op, in.RD, in.RS1, in.Label)
	}
	return isa.Inst{Op: in.Op, RD: in.RD, RS1: in.RS1, RS2: in.RS2, Imm: in.Imm}.String()
}

// Convenience constructors used heavily by the compiler and tests.

// R builds an R-type instruction.
func R(op isa.Op, rd, rs1, rs2 isa.Reg) Inst { return Inst{Op: op, RD: rd, RS1: rs1, RS2: rs2} }

// I builds an I-type instruction.
func I(op isa.Op, rd, rs1 isa.Reg, imm int32) Inst {
	return Inst{Op: op, RD: rd, RS1: rs1, Imm: imm}
}

// Li builds a load-immediate pseudo.
func Li(rd isa.Reg, v int32) Inst { return Inst{Pseudo: PLi, RD: rd, Imm: v} }

// La builds a load-address pseudo for data symbol sym+off.
func La(rd isa.Reg, sym string, off int32) Inst {
	return Inst{Pseudo: PLa, RD: rd, Sym: sym, Imm: off}
}

// Call builds a call pseudo.
func Call(fn string) Inst { return Inst{Pseudo: PCall, Label: fn} }

// Ret builds a return pseudo.
func Ret() Inst { return Inst{Pseudo: PRet} }

// Jmp builds an unconditional jump pseudo.
func Jmp(label string) Inst { return Inst{Pseudo: PJmp, Label: label} }

// Br builds a conditional branch to a label.
func Br(op isa.Op, a, b isa.Reg, label string) Inst {
	return Inst{Op: op, RD: a, RS1: b, Label: label}
}

// Lw builds a load.
func Lw(rd, base isa.Reg, off int32) Inst { return I(isa.LW, rd, base, off) }

// Sw builds a store.
func Sw(src, base isa.Reg, off int32) Inst { return I(isa.SW, src, base, off) }

// SwImplicit builds a bookkeeping store excluded from the event trace.
func SwImplicit(src, base isa.Reg, off int32) Inst {
	in := Sw(src, base, off)
	in.Implicit = true
	return in
}

// Sys builds a system call.
func Sys(code int32) Inst { return I(isa.SYS, 0, 0, code) }
