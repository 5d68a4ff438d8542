package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"edb/internal/arch"
)

func TestReadWriteRoundtrip(t *testing.T) {
	m := New(arch.PageSize4K)
	a := arch.GlobalBase + 16
	if err := m.WriteWord(a, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	w, err := m.ReadWord(a)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0xdeadbeef {
		t.Errorf("read %#x, want 0xdeadbeef", w)
	}
}

func TestUntouchedReadsZero(t *testing.T) {
	m := New(arch.PageSize4K)
	w, err := m.ReadWord(arch.HeapBase + 1024)
	if err != nil || w != 0 {
		t.Errorf("untouched read = %#x, %v", w, err)
	}
}

func TestAlignmentFault(t *testing.T) {
	m := New(arch.PageSize4K)
	_, err := m.ReadWord(arch.GlobalBase + 1)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultAlignment {
		t.Errorf("want alignment fault, got %v", err)
	}
	err = m.WriteWord(arch.GlobalBase+2, 1)
	if !errors.As(err, &f) || f.Kind != FaultAlignment || f.Access != AccessWrite {
		t.Errorf("want write alignment fault, got %v", err)
	}
}

func TestUnmappedFault(t *testing.T) {
	m := New(arch.PageSize4K)
	_, err := m.ReadWord(0xf000_0000)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultUnmapped {
		t.Errorf("want unmapped fault, got %v", err)
	}
	if err := m.WriteWord(0, 1); err == nil {
		t.Error("write to address 0 should fault")
	}
}

func TestProtectionFaultOnWrite(t *testing.T) {
	m := New(arch.PageSize4K)
	a := arch.HeapBase + 4096
	if err := m.WriteWord(a, 1); err != nil {
		t.Fatal(err)
	}
	m.Protect(a, a+4, ProtRead)
	err := m.WriteWord(a, 2)
	var f *Fault
	if !errors.As(err, &f) || f.Kind != FaultProtection || f.Access != AccessWrite {
		t.Fatalf("want protection fault, got %v", err)
	}
	// Read still allowed.
	if w, err := m.ReadWord(a); err != nil || w != 1 {
		t.Errorf("read after protect = %#x, %v", w, err)
	}
	// Kernel write bypasses.
	if err := m.KernelWriteWord(a, 3); err != nil {
		t.Errorf("kernel write should bypass: %v", err)
	}
	if w, _ := m.KernelReadWord(a); w != 3 {
		t.Errorf("kernel read = %#x", w)
	}
	// Unprotect restores write access.
	m.Protect(a, a+4, ProtRW)
	if err := m.WriteWord(a, 4); err != nil {
		t.Errorf("write after unprotect: %v", err)
	}
}

func TestProtectWholePage(t *testing.T) {
	m := New(arch.PageSize4K)
	base := arch.PageBase(arch.HeapBase+10000, arch.PageSize4K)
	m.Protect(base+100, base+104, ProtRead) // protect via an interior range
	// The entire 4K page must be protected.
	if err := m.WriteWord(base, 1); err == nil {
		t.Error("page start should be protected")
	}
	if err := m.WriteWord(base+4092, 1); err == nil {
		t.Error("page end should be protected")
	}
	// Neighbouring page untouched.
	if err := m.WriteWord(base+4096, 1); err != nil {
		t.Errorf("next page should be writable: %v", err)
	}
}

func TestProtect8KGranularity(t *testing.T) {
	m := New(arch.PageSize8K)
	base := arch.PageBase(arch.HeapBase, arch.PageSize8K)
	m.Protect(base, base+4, ProtRead)
	// Both 4K halves of the 8K page are protected.
	if err := m.WriteWord(base+4096, 1); err == nil {
		t.Error("second 4K half of the 8K page should be protected")
	}
	if err := m.WriteWord(base+8192, 1); err != nil {
		t.Errorf("next 8K page should be writable: %v", err)
	}
}

func TestProtectRangeSpanningPages(t *testing.T) {
	m := New(arch.PageSize4K)
	ba := arch.HeapBase + 4090
	ea := arch.HeapBase + 4100 // spans two pages
	m.Protect(ba, ea, ProtRead)
	if err := m.WriteWord(arch.HeapBase, 1); err == nil {
		t.Error("first page should be protected")
	}
	if err := m.WriteWord(arch.HeapBase+4096, 1); err == nil {
		t.Error("second page should be protected")
	}
	if err := m.WriteWord(arch.HeapBase+8192, 1); err != nil {
		t.Error("third page should be writable")
	}
}

func TestProtAt(t *testing.T) {
	m := New(arch.PageSize4K)
	if got := m.ProtAt(arch.HeapBase); got != ProtRW {
		t.Errorf("default prot = %v", got)
	}
	m.Protect(arch.HeapBase, arch.HeapBase+1, ProtRead|ProtExec)
	if got := m.ProtAt(arch.HeapBase + 4000); got != ProtRead|ProtExec {
		t.Errorf("prot after Protect = %v", got)
	}
	if got := m.ProtAt(0xffff_fffc); got != 0 {
		t.Errorf("out-of-range prot = %v", got)
	}
}

func TestFetchRequiresExec(t *testing.T) {
	m := New(arch.PageSize4K)
	a := arch.TextBase
	m.Protect(a, a+4, ProtRead|ProtExec)
	if _, err := m.FetchWord(a); err != nil {
		t.Errorf("fetch from exec page: %v", err)
	}
	m.Protect(a, a+4, ProtRead)
	if _, err := m.FetchWord(a); err == nil {
		t.Error("fetch from non-exec page should fault")
	}
}

func TestWriteBytesKernel(t *testing.T) {
	m := New(arch.PageSize4K)
	data := []byte{1, 2, 3, 4, 5} // 1.25 words; padded
	if err := m.WriteBytesKernel(arch.GlobalBase, data); err != nil {
		t.Fatal(err)
	}
	w0, _ := m.ReadWord(arch.GlobalBase)
	if w0 != 0x04030201 {
		t.Errorf("word 0 = %#x", w0)
	}
	w1, _ := m.ReadWord(arch.GlobalBase + 4)
	if w1 != 0x00000005 {
		t.Errorf("word 1 = %#x", w1)
	}
	if err := m.WriteBytesKernel(arch.GlobalBase+2, data); err == nil {
		t.Error("unaligned WriteBytesKernel should fail")
	}
}

func TestProtString(t *testing.T) {
	if ProtRW.String() != "rw-" {
		t.Errorf("ProtRW = %q", ProtRW.String())
	}
	if (ProtRead | ProtExec).String() != "r-x" {
		t.Error("r-x rendering")
	}
	if Prot(0).String() != "---" {
		t.Error("empty prot rendering")
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Kind: FaultProtection, Access: AccessWrite, Addr: 0x1000}
	if f.Error() == "" {
		t.Error("empty error string")
	}
	for _, k := range []FaultKind{FaultProtection, FaultUnmapped, FaultAlignment} {
		e := (&Fault{Kind: k, Access: AccessRead, Addr: 4}).Error()
		if e == "" {
			t.Errorf("fault kind %d has empty message", k)
		}
	}
}

// Property: writes to distinct aligned addresses never interfere.
func TestWriteIsolation(t *testing.T) {
	m := New(arch.PageSize4K)
	f := func(o1, o2 uint16, v1, v2 uint32) bool {
		a1 := arch.HeapBase + arch.Addr(o1)*4
		a2 := arch.HeapBase + arch.Addr(o2)*4
		if a1 == a2 {
			return true
		}
		if m.WriteWord(a1, arch.Word(v1)) != nil || m.WriteWord(a2, arch.Word(v2)) != nil {
			return false
		}
		r1, _ := m.ReadWord(a1)
		r2, _ := m.ReadWord(a2)
		return r1 == arch.Word(v1) && r2 == arch.Word(v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewRejectsBadPageSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(1234) should panic")
		}
	}()
	New(1234)
}

// TestObserveText: every path that changes text reports the changed
// range — WriteWord, KernelWriteWord, WriteBytesKernel word by word,
// and Protect as whole pages clipped to text — and nothing outside
// text is reported.
func TestObserveText(t *testing.T) {
	m := New(arch.PageSize8K)
	var got []arch.Range
	m.ObserveText(func(ba, ea arch.Addr) { got = append(got, arch.Range{BA: ba, EA: ea}) })
	expect := func(what string, want ...arch.Range) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: reported %v, want %v", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: reported %v, want %v", what, got, want)
			}
		}
		got = got[:0]
	}
	a := arch.TextBase + 0x40
	if err := m.WriteWord(a, 1); err != nil {
		t.Fatal(err)
	}
	expect("WriteWord", arch.Range{BA: a, EA: a + 4})
	if err := m.KernelWriteWord(a, 2); err != nil {
		t.Fatal(err)
	}
	expect("KernelWriteWord", arch.Range{BA: a, EA: a + 4})
	if err := m.WriteBytesKernel(a, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	expect("WriteBytesKernel", arch.Range{BA: a, EA: a + 4}, arch.Range{BA: a + 4, EA: a + 8})
	m.Protect(a, a+4, ProtRead)
	expect("Protect", arch.Range{BA: 0, EA: arch.PageSize8K})
	m.Protect(arch.TextLimit-4, arch.TextLimit+4, ProtRW)
	expect("Protect across the text limit", arch.Range{BA: arch.TextLimit - arch.PageSize8K, EA: arch.TextLimit})
	if err := m.KernelWriteWord(arch.GlobalBase, 3); err != nil {
		t.Fatal(err)
	}
	m.Protect(arch.GlobalBase, arch.GlobalBase+4, ProtRead)
	m.Protect(a, a, ProtRead)
	expect("writes and protects outside text")
}
