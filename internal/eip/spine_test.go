package eip_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/eip"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/sgx"
	"repro/internal/ulib"
)

// expect emits "if R0 != want, exit(code)"; failLabels emits the exits.
func expect(b *asm.Builder, want int32, code int) {
	b.CmpI(isa.R0, want)
	b.Jne(fmt.Sprintf("fail%d", code))
}

func failLabels(b *asm.Builder, codes int) {
	for c := 1; c <= codes; c++ {
		b.Label(fmt.Sprintf("fail%d", c))
		b.Nop()
		ulib.Exit(b, int64(c))
	}
}

// TestEIPSpineConformance runs one guest through the EIP's syscall
// table: encrypted-pipe write ends are reference counted across dup2,
// close and spawn inheritance; errors come back as the shared ABI's
// errnos; the protected FS stays read-only; lseek is not modeled.
func TestEIPSpineConformance(t *testing.T) {
	g := newEIP(t)
	g.InstallFile("/etc/conf", []byte("frozen"))
	// The child's only job is to write through the duplicated write end
	// it inherited at fd 10, then exit (dropping its references).
	install(t, g, "/bin/writer", buildProg(t, func(b *asm.Builder) {
		b.String("msg", "abc")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.WriteStr(b, 10, "msg", 3)
		ulib.Exit(b, 0)
	}))
	install(t, g, "/bin/conform", buildProg(t, func(b *asm.Builder) {
		b.Zero("fds", 16)
		b.Zero("buf", 16)
		b.String("child", "/bin/writer")
		b.String("conf", "/etc/conf")
		b.String("dir", "/d")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Pipe2(b, "fds")
		b.LoadData(isa.R6, "fds") // read end
		b.LeaData(isa.R7, "fds")
		b.Load(isa.R7, isa.Mem(isa.R7, 8)) // write end
		b.MovRI(isa.R8, 10)
		ulib.Dup2(b, isa.R7, isa.R8)
		expect(b, 10, 1)
		ulib.Close(b, isa.R7)
		expect(b, 0, 2)
		// The child inherits fd 10; once the parent closes its own copy,
		// the child holds the last write end.
		ulib.SpawnPath(b, "child", 11, "", 0)
		b.MovRR(isa.R9, isa.R0)
		ulib.Close(b, isa.R8)
		expect(b, 0, 3)
		// Blocks until the child writes: closing fds 7 and 10 here
		// must not have closed the pipe.
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 16)
		ulib.Syscall(b, libos.SysRead)
		expect(b, 3, 4)
		// EOF once the child's exit dropped the last write end.
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 16)
		ulib.Syscall(b, libos.SysRead)
		expect(b, 0, 5)
		ulib.Wait4(b, isa.R9)
		b.Cmp(isa.R0, isa.R9)
		b.Jne("fail6")

		b.MovRI(isa.R1, 99)
		ulib.Syscall(b, libos.SysClose)
		expect(b, -libos.EBADF, 7)
		b.LeaData(isa.R1, "dir")
		b.MovRI(isa.R2, 2)
		ulib.Syscall(b, libos.SysMkdir)
		expect(b, -libos.EACCES, 8)
		b.LeaData(isa.R1, "dir")
		b.MovRI(isa.R2, 2)
		ulib.Syscall(b, libos.SysUnlink)
		expect(b, -libos.EACCES, 9)

		ulib.OpenPath(b, "conf", 9, libos.ORdOnly)
		b.MovRR(isa.R10, isa.R0)
		b.CmpI(isa.R10, 0)
		b.Jl("fail10")
		b.MovRR(isa.R1, isa.R10)
		b.MovRI(isa.R2, 0)
		b.MovRI(isa.R3, libos.SeekSet)
		ulib.Syscall(b, libos.SysLseek)
		expect(b, -libos.ENOSYS, 11)
		b.MovRR(isa.R1, isa.R10)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 3)
		ulib.Syscall(b, libos.SysWrite)
		b.CmpI(isa.R0, 0)
		b.Jge("fail12")
		ulib.Exit(b, 0)
		failLabels(b, 12)
	}))
	p, err := g.Spawn("/bin/conform", nil, eip.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-waitCh(p):
	case <-time.After(30 * time.Second):
		t.Fatal("guest hung: a pipe end leaked a reference")
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("conformance check %d failed", status)
	}
}

// TestEIPInheritedFileSharesOffset: a protected-file fd inherited by a
// child is the same open file description, so the child's reads move
// the parent's offset, as POSIX requires.
func TestEIPInheritedFileSharesOffset(t *testing.T) {
	g := newEIP(t)
	g.InstallFile("/etc/conf", []byte("abcdef"))
	install(t, g, "/bin/head3", buildProg(t, func(b *asm.Builder) {
		b.Zero("buf", 8)
		b.Entry("_start")
		ulib.Prologue(b)
		b.MovRI(isa.R1, 3) // the parent's first open lands at fd 3
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 3)
		ulib.Syscall(b, libos.SysRead)
		ulib.Exit(b, 0)
	}))
	install(t, g, "/bin/rest", buildProg(t, func(b *asm.Builder) {
		b.String("conf", "/etc/conf")
		b.String("child", "/bin/head3")
		b.Zero("buf", 8)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.OpenPath(b, "conf", 9, libos.ORdOnly)
		b.MovRR(isa.R6, isa.R0)
		ulib.SpawnPath(b, "child", 10, "", 0)
		b.MovRR(isa.R7, isa.R0)
		ulib.Wait4(b, isa.R7)
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 8)
		ulib.Syscall(b, libos.SysRead)
		b.MovRR(isa.R3, isa.R0)
		b.MovRI(isa.R1, 1)
		b.LeaData(isa.R2, "buf")
		ulib.Syscall(b, libos.SysWrite)
		ulib.Exit(b, 0)
	}))
	var out bytes.Buffer
	p, err := g.Spawn("/bin/rest", nil, eip.SpawnOpt{Stdout: libos.NewWriterFile(&out)})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 || out.String() != "def" {
		t.Fatalf("status=%d parent read %q after the child's 3 bytes, want \"def\"", status, out.String())
	}
}

// TestEIPFailedSpawnLeavesNoChild: a spawn that fails after the child
// was registered (here: an argv too large for the stack) must tear the
// child down — no live pid, no enclave, no pipe reference kept.
func TestEIPFailedSpawnLeavesNoChild(t *testing.T) {
	platform := sgx.NewPlatform(1 << 30)
	g := eip.New(platform, hostos.New(), eip.DefaultConfig())
	install(t, g, "/bin/true", buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, 0)
	}))
	r, w := libos.NewPipe()
	before := platform.EPCUsed()
	if _, err := g.Spawn("/bin/true", make([]string, 1<<20), eip.SpawnOpt{Stdout: w}); err == nil {
		t.Fatal("spawn with a 1M-entry argv succeeded")
	}
	if pids := g.Procs(); len(pids) != 0 {
		t.Fatalf("failed spawn left live pids %v", pids)
	}
	if used := platform.EPCUsed(); used != before {
		t.Fatalf("failed spawn leaked EPC: %d → %d", before, used)
	}
	w.Unref()
	assertEOF(t, r)
}

// assertEOF fails unless r reports EOF promptly: every write end is
// gone.
func assertEOF(t *testing.T, r *libos.OpenFile) {
	t.Helper()
	got := make(chan error, 1)
	go func() {
		_, err := r.Read(make([]byte, 1))
		got <- err
	}()
	select {
	case err := <-got:
		if err != io.EOF {
			t.Fatalf("read after the last write end closed: %v, want EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipe still has a writer: the failed child kept its fd reference")
	}
}

func waitCh(p *eip.Proc) <-chan struct{} {
	ch := make(chan struct{})
	go func() { p.Wait(); close(ch) }()
	return ch
}
