package mem

import (
	"sync"
	"testing"
)

// scrubTestMem maps 8 RW pages and marks them clean.
func scrubTestMem(t *testing.T) *Paged {
	t.Helper()
	m := NewPaged(0x10000, 16*PageSize)
	if err := m.Map(0x10000, 8*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkClean(0x10000, 8*PageSize); err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *Paged) isClean(addr uint64) bool {
	return m.perms[m.pageIndex(addr)].Load()&permClean != 0
}

// TestZeroDirtyPerWritePath: each write path dirties exactly the pages
// it writes, and ZeroDirty zeroes those and nothing else.
func TestZeroDirtyPerWritePath(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(m *Paged, addr uint64) error
	}{
		{"Store8", func(m *Paged, addr uint64) error { return asErr(m.Store(addr, 8, 0x1122334455667788)) }},
		{"Store1", func(m *Paged, addr uint64) error { return asErr(m.Store(addr, 1, 0xAB)) }},
		{"WriteAt", func(m *Paged, addr uint64) error { return asErr(m.WriteAt(addr, []byte("dirty"))) }},
		{"WriteLoan", func(m *Paged, addr uint64) error {
			v, f := m.ViewBytes(addr, 5, AccessWrite)
			if f != nil {
				return f
			}
			copy(v.B, "dirty")
			v.CommitWrite(5)
			return nil
		}},
		{"WriteDirect", func(m *Paged, addr uint64) error { return m.WriteDirect(addr, []byte("dirty")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := scrubTestMem(t)
			base := m.Base()
			if n := m.ZeroDirty(base, 8*PageSize); n != 0 {
				t.Fatalf("ZeroDirty on clean pages = %d, want 0", n)
			}
			for _, pg := range []uint64{1, 5} {
				if err := tc.write(m, base+pg*PageSize+100); err != nil {
					t.Fatal(err)
				}
				// A second write to a now-dirty page takes the fast path.
				if err := tc.write(m, base+pg*PageSize+200); err != nil {
					t.Fatal(err)
				}
			}
			for pg := uint64(0); pg < 8; pg++ {
				if want := pg != 1 && pg != 5; m.isClean(base+pg*PageSize) != want {
					t.Fatalf("page %d clean = %v, want %v", pg, !want, want)
				}
			}
			if n := m.ZeroDirty(base, 8*PageSize); n != 2 {
				t.Fatalf("ZeroDirty = %d, want 2", n)
			}
			if n := m.ZeroDirty(base, 8*PageSize); n != 0 {
				t.Fatalf("second ZeroDirty = %d, want 0", n)
			}
			assertZero(t, m, base, 8*PageSize)
		})
	}
}

func asErr(f *Fault) error {
	if f == nil {
		return nil
	}
	return f
}

func assertZero(t *testing.T, m *Paged, addr, n uint64) {
	t.Helper()
	b, err := m.ReadDirect(addr, int(n))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range b {
		if c != 0 {
			t.Fatalf("byte at %#x = %#x, want 0", addr+uint64(i), c)
		}
	}
}

// TestCleanBitHidden: the clean bit never shows through Perm, reads and
// read loans leave it alone, and Map drops it.
func TestCleanBitHidden(t *testing.T) {
	m := scrubTestMem(t)
	base := m.Base()
	if p := m.PermAt(base); p != PermRW {
		t.Fatalf("PermAt clean page = %v, want rw-", p)
	}
	if _, f := m.Load(base, 8); f != nil {
		t.Fatal(f)
	}
	if _, f := m.ReadAt(base, 8); f != nil {
		t.Fatal(f)
	}
	if _, f := m.ViewBytes(base, 8, AccessRead); f != nil {
		t.Fatal(f)
	}
	if !m.isClean(base) {
		t.Fatal("a read dirtied a page")
	}
	// Remapping, even to the same permission, makes pages dirty.
	if err := m.Map(base+2*PageSize, 2*PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if m.isClean(base+2*PageSize) || m.isClean(base+3*PageSize) || !m.isClean(base+4*PageSize) {
		t.Fatal("Map must drop the clean bit on exactly the remapped pages")
	}
	if n := m.ZeroDirty(base, 8*PageSize); n != 2 {
		t.Fatalf("ZeroDirty after remap = %d, want 2", n)
	}
	// MarkClean leaves permissions alone, including on unmapped pages.
	if err := m.MarkClean(base+8*PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	if f := m.Store(base+8*PageSize, 8, 1); f == nil || !f.Unmapped {
		t.Fatalf("store to a clean unmapped page: fault = %v", f)
	}
	if err := m.MarkClean(m.Limit(), 1); err == nil {
		t.Fatal("MarkClean out of range must fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("ZeroDirty out of range must panic")
			}
		}()
		m.ZeroDirty(m.Limit()-PageSize, 2*PageSize)
	}()
}

// TestCrossPageStoreDirtiesBoth: a slow-path store straddling two clean
// pages dirties both.
func TestCrossPageStoreDirtiesBoth(t *testing.T) {
	m := scrubTestMem(t)
	addr := m.Base() + 3*PageSize - 4
	if f := m.Store(addr, 8, 0xFFFFFFFFFFFFFFFF); f != nil {
		t.Fatal(f)
	}
	if m.isClean(addr) || m.isClean(addr+4) {
		t.Fatal("cross-page store left a page clean")
	}
	if n := m.ZeroDirty(m.Base(), 8*PageSize); n != 2 {
		t.Fatalf("ZeroDirty = %d, want 2", n)
	}
	assertZero(t, m, m.Base(), 8*PageSize)
}

// TestZeroDirtyStampsAndRevokes: a scrubbed page is stamped like a
// trusted overwrite, so loans over it are revoked and its generation
// advances; clean pages keep their generation.
func TestZeroDirtyStampsAndRevokes(t *testing.T) {
	m := scrubTestMem(t)
	dirty, clean := m.Base()+PageSize, m.Base()+2*PageSize
	if f := m.Store(dirty, 8, 42); f != nil {
		t.Fatal(f)
	}
	v, f := m.ViewBytes(dirty, 16, AccessRead)
	if f != nil {
		t.Fatal(f)
	}
	cv, f := m.ViewBytes(clean, 16, AccessRead)
	if f != nil {
		t.Fatal(f)
	}
	g0, c0 := m.GenerationOf(dirty, 16), m.GenerationOf(clean, 16)
	if n := m.ZeroDirty(m.Base(), 8*PageSize); n != 1 {
		t.Fatalf("ZeroDirty = %d, want 1", n)
	}
	if !v.Revoked() {
		t.Fatal("loan over a scrubbed page not revoked")
	}
	if g := m.GenerationOf(dirty, 16); g <= g0 {
		t.Fatalf("GenerationOf scrubbed page = %d, want > %d", g, g0)
	}
	if cv.Revoked() || m.GenerationOf(clean, 16) != c0 {
		t.Fatal("ZeroDirty stamped a clean page")
	}
}

// TestZeroDirtyAfterConcurrentStores: harts store concurrently to
// distinct pages of one Paged — first stores racing through the slow
// path on clean pages — and ZeroDirty then leaves every page zero and
// clean. Run it under -race.
func TestZeroDirtyAfterConcurrentStores(t *testing.T) {
	const harts, pagesPerHart = 4, 8
	m := NewPaged(0x10000, harts*pagesPerHart*PageSize)
	all := uint64(harts * pagesPerHart * PageSize)
	if err := m.Map(m.Base(), all, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkClean(m.Base(), all); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for h := 0; h < harts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			// Hart h owns pages h, h+harts, h+2*harts, ...: neighbours
			// belong to other harts, so permission words of adjacent
			// pages are updated concurrently.
			for round := 0; round < 50; round++ {
				for k := 0; k < pagesPerHart; k++ {
					page := m.Base() + uint64(h+k*harts)*PageSize
					if f := m.Store(page+uint64(round)*8, 8, uint64(h+1)<<32|uint64(round+1)); f != nil {
						t.Error(f)
						return
					}
					if f := m.Store(page+PageSize-1-uint64(round), 1, 0xFF); f != nil {
						t.Error(f)
						return
					}
				}
			}
		}(h)
	}
	wg.Wait()
	if n := m.ZeroDirty(m.Base(), all); n != harts*pagesPerHart {
		t.Fatalf("ZeroDirty = %d, want %d", n, harts*pagesPerHart)
	}
	assertZero(t, m, m.Base(), all)
	for pg := uint64(0); pg < harts*pagesPerHart; pg++ {
		if !m.isClean(m.Base() + pg*PageSize) {
			t.Fatalf("page %d not clean after ZeroDirty", pg)
		}
	}
}
