package libos_test

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/mem"
	"repro/internal/ulib"
)

// scrubMarker is the secret a SIP plants in its domain; no later SIP in
// the same domain may find it.
const scrubMarker = 0x5EC2E7_0DD_C0FFEE

// heapScanProg exits 0 when every word from the heap base up to its
// auxv block is zero, 1 otherwise. That span covers the heap and the
// stack below the auxv. It scans before its first call, so none of its
// own stack frames are in the way.
func heapScanProg(b *asm.Builder) {
	b.Entry("_start")
	ulib.Prologue(b)
	b.Load(isa.R7, isa.Mem(isa.R10, libos.AuxHeapBase))
	b.Label("scan")
	b.Cmp(isa.R7, isa.R10)
	b.Jae("clean")
	b.Load(isa.R8, isa.Mem(isa.R7, 0))
	b.Test(isa.R8, isa.R8)
	b.Jne("dirty")
	b.AddI(isa.R7, 8)
	b.Jmp("scan")
	b.Label("clean")
	ulib.Exit(b, 0)
	b.Label("dirty")
	b.Nop()
	ulib.Exit(b, 1)
}

// pipeMarker emits pipe2 and a write of the 8-byte "marker" data symbol
// into it, leaving the read fd in R7. Exits 2 on a short write.
func pipeMarker(b *asm.Builder) {
	ulib.Pipe2(b, "pfds")
	b.LeaData(isa.R5, "pfds")
	b.Load(isa.R1, isa.Mem(isa.R5, 8))
	b.LeaData(isa.R2, "marker")
	b.MovRI(isa.R3, 8)
	ulib.Syscall(b, libos.SysWrite)
	b.CmpI(isa.R0, 8)
	b.Jne("fail")
	b.LeaData(isa.R5, "pfds")
	b.Load(isa.R7, isa.Mem(isa.R5, 0))
}

// TestDomainReuseIsolation plants a marker in a SIP's domain through
// each path that writes guest memory, then checks that the exit scrub
// left the whole domain zero and that the next SIP, which necessarily
// gets the same domain, finds nothing. The heap targets sit on pages no
// other path writes, so each subtest fails if its own path stops
// marking pages dirty.
func TestDomainReuseIsolation(t *testing.T) {
	var marker [8]byte
	binary.LittleEndian.PutUint64(marker[:], scrubMarker)
	for _, tc := range []struct {
		name  string
		plant func(b *asm.Builder) // R6 holds the heap end
	}{
		{"store", func(b *asm.Builder) {
			b.MovRI(isa.R7, scrubMarker)
			b.Push(isa.R7)                       // stack page
			b.Store(isa.Mem(isa.R6, -8), isa.R7) // top heap page, below the stack
			// An 8-byte store straddling two heap pages.
			b.MovRR(isa.R8, isa.R6)
			b.SubI(isa.R8, 3*mem.PageSize+4)
			b.Store(isa.Mem(isa.R8, 0), isa.R7)
		}},
		{"read", func(b *asm.Builder) { // scalar read: WriteAt
			pipeMarker(b)
			b.MovRR(isa.R2, isa.R6)
			b.SubI(isa.R2, 5*mem.PageSize+64)
			b.MovRR(isa.R1, isa.R7)
			b.MovRI(isa.R3, 8)
			ulib.Syscall(b, libos.SysRead)
			b.CmpI(isa.R0, 8)
			b.Jne("fail")
		}},
		{"readv", func(b *asm.Builder) { // write loan: ViewBytes
			pipeMarker(b)
			b.MovRR(isa.R2, isa.R6)
			b.SubI(isa.R2, 7*mem.PageSize+128)
			ulib.IovSetReg(b, "iov", 0, isa.R2, 8)
			ulib.Readv(b, isa.R7, "iov", 1)
			b.CmpI(isa.R0, 8)
			b.Jne("fail")
		}},
		// The loader writes the code (which carries the marker as an
		// immediate), the trampoline, the data segment and the auxv with
		// WriteDirect; the SIP itself writes nothing.
		{"loader", func(b *asm.Builder) {
			b.MovRI(isa.R7, scrubMarker)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, tch := bootSmall(t, 1, 2, 0, nil)
			defer sys.OS.Shutdown()
			planter := buildProg(t, func(b *asm.Builder) {
				b.Bytes("marker", marker[:])
				b.Zero("pfds", 16)
				b.Zero("iov", 16)
				b.Entry("_start")
				ulib.Prologue(b)
				b.Load(isa.R6, isa.Mem(isa.R10, libos.AuxHeapEnd))
				tc.plant(b)
				ulib.Exit(b, 0)
				b.Label("fail")
				b.Nop()
				ulib.Exit(b, 2)
			})
			// Same-length paths give both SIPs the same auxv layout, so
			// the scanner's span covers the planter's stack.
			if err := sys.Install(tch, "/bin/a", "a", planter); err != nil {
				t.Fatal(err)
			}
			if err := sys.Install(tch, "/bin/b", "b", buildProg(t, heapScanProg)); err != nil {
				t.Fatal(err)
			}
			a, err := sys.OS.Spawn("/bin/a", nil, libos.SpawnOpt{})
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTimeout(t, a, 30*time.Second, "planter"); st != 0 {
				t.Fatalf("planter exit status = %d", st)
			}
			codeBase, codeSize, dataBase, dataSize := a.DomainRegions()
			for _, r := range []struct {
				name       string
				base, size uint64
			}{{"code", codeBase, codeSize}, {"data", dataBase, dataSize}} {
				b, err := sys.OS.ReadEnclave(r.base, int(r.size))
				if err != nil {
					t.Fatal(err)
				}
				for off, c := range b {
					if c != 0 {
						t.Fatalf("%s region byte at %#x = %#x after exit scrub (%d pages scrubbed)",
							r.name, r.base+uint64(off), c, a.ScrubbedPages())
					}
				}
			}
			scanner, err := sys.OS.Spawn("/bin/b", nil, libos.SpawnOpt{})
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTimeout(t, scanner, 30*time.Second, "scanner"); st != 0 {
				t.Fatalf("next SIP in the domain found stale data (status %d)", st)
			}
		})
	}
}

// TestExitScrubsOnlyDirtyPages is the structural claim behind cheap SIP
// exit: a SIP that writes nothing itself leaves only the pages the
// loader wrote to scrub — a handful, not the domain's 320.
func TestExitScrubsOnlyDirtyPages(t *testing.T) {
	sys, tch := bootSmall(t, 1, 2, 0, nil)
	defer sys.OS.Shutdown()
	if err := sys.Install(tch, "/bin/true", "true", buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, 0)
	})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p, err := sys.OS.Spawn("/bin/true", nil, libos.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Wait(); st != 0 {
			t.Fatalf("exit status = %d", st)
		}
		n := p.ScrubbedPages()
		if n < 1 || n > 16 {
			t.Fatalf("spawn %d: exit scrubbed %d pages, want 1..16", i, n)
		}
		t.Logf("spawn %d: exit scrubbed %d pages", i, n)
	}
}
