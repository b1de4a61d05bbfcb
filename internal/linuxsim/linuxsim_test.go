package linuxsim_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/linuxsim"
	"repro/internal/ulib"
)

func buildProg(t testing.TB, f func(b *asm.Builder)) *asm.Program {
	t.Helper()
	b := asm.NewBuilder()
	f(b)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// install compiles (uninstrumented — native Linux runs plain binaries)
// and installs.
func install(t testing.TB, l *linuxsim.Linux, path string, prog *asm.Program) {
	t.Helper()
	tc := core.NewToolchain()
	bin, err := tc.CompileUnverified(path, prog)
	if err != nil {
		t.Fatal(err)
	}
	l.InstallBinary(path, bin)
}

func TestNativeHello(t *testing.T) {
	l := linuxsim.New(hostos.New())
	prog := buildProg(t, func(b *asm.Builder) {
		b.String("msg", "native hello\n")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.WriteStr(b, 1, "msg", 13)
		ulib.Exit(b, 5)
	})
	install(t, l, "/bin/hello", prog)

	var out bytes.Buffer
	p, err := l.Spawn("/bin/hello", nil, linuxsim.SpawnOpt{Stdout: libos.NewWriterFile(&out)})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 5 {
		t.Fatalf("status = %d", status)
	}
	if out.String() != "native hello\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestNativeSpawnChain(t *testing.T) {
	l := linuxsim.New(hostos.New())
	child := buildProg(t, func(b *asm.Builder) {
		b.String("msg", "child\n")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.WriteStr(b, 1, "msg", 6)
		ulib.Exit(b, 0)
	})
	install(t, l, "/bin/child", child)

	parent := buildProg(t, func(b *asm.Builder) {
		b.String("path", "/bin/child")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.SpawnPath(b, "path", 10, "", 0)
		b.MovRR(isa.R6, isa.R0)
		ulib.Wait4(b, isa.R6)
		ulib.Exit(b, 0)
	})
	install(t, l, "/bin/parent", parent)

	var out bytes.Buffer
	p, err := l.Spawn("/bin/parent", nil, linuxsim.SpawnOpt{Stdout: libos.NewWriterFile(&out)})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	if out.String() != "child\n" {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestNativeFileIO(t *testing.T) {
	l := linuxsim.New(hostos.New())
	prog := buildProg(t, func(b *asm.Builder) {
		b.String("path", "/tmp/f")
		b.String("content", "plaintext")
		b.Zero("buf", 16)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.OpenPath(b, "path", 6, libos.ORdWr|libos.OCreate)
		b.MovRR(isa.R6, isa.R0)
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "content")
		b.MovRI(isa.R3, 9)
		ulib.Syscall(b, libos.SysWrite)
		b.MovRR(isa.R1, isa.R6)
		b.MovRI(isa.R2, 0)
		b.MovRI(isa.R3, libos.SeekSet)
		ulib.Syscall(b, libos.SysLseek)
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 9)
		ulib.Syscall(b, libos.SysRead)
		b.MovRI(isa.R1, 1)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 9)
		ulib.Syscall(b, libos.SysWrite)
		ulib.Exit(b, 0)
	})
	install(t, l, "/bin/fio", prog)

	var out bytes.Buffer
	p, err := l.Spawn("/bin/fio", nil, linuxsim.SpawnOpt{Stdout: libos.NewWriterFile(&out)})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 0 {
		t.Fatalf("status = %d", status)
	}
	if out.String() != "plaintext" {
		t.Fatalf("stdout = %q", out.String())
	}
	got, err := l.ReadFile("/tmp/f")
	if err != nil || string(got) != "plaintext" {
		t.Fatalf("file = %q, %v", got, err)
	}
}

func TestNativeRunsInstrumentedBinariesToo(t *testing.T) {
	// Sanity: the same *instrumented* binary also runs on Linux (the
	// guards pass because BND registers default to an all-range bound
	// only if set; on Linux they are zero — so instead verify the
	// *uninstrumented* path is the one used for Linux in benches, and
	// that instrumented code traps #BR here, proving the measurement
	// methodology must compare like for like).
	l := linuxsim.New(hostos.New())
	tc := core.NewToolchain()
	prog := buildProg(t, func(b *asm.Builder) {
		b.Zero("buf", 16)
		b.Entry("_start")
		ulib.Prologue(b)
		b.LeaData(isa.R1, "buf")
		b.MovRI(isa.R2, 1)
		b.Store(isa.Mem(isa.R1, 0), isa.R2)
		ulib.Exit(b, 0)
	})
	bin, err := tc.Compile("instr", prog)
	if err != nil {
		t.Fatal(err)
	}
	l.InstallBinary("/bin/instr", bin)
	p, err := l.Spawn("/bin/instr", nil, linuxsim.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if status := p.Wait(); status != 128+libos.SIGSEGV {
		t.Fatalf("status = %d: instrumented code must #BR on a kernel that does not program MPX", status)
	}
}

func TestBinaryCacheMakesSpawnFlat(t *testing.T) {
	l := linuxsim.New(hostos.New())
	prog := buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, 0)
	})
	// Pad the data segment to make a "large" binary.
	big := buildProg(t, func(b *asm.Builder) {
		b.Bytes("pad", make([]byte, 2<<20))
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, 0)
	})
	install(t, l, "/bin/small", prog)
	install(t, l, "/bin/big", big)
	for i := 0; i < 3; i++ {
		p, err := l.Spawn("/bin/big", nil, linuxsim.SpawnOpt{})
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Wait(); st != 0 {
			t.Fatalf("status = %d", st)
		}
	}
}

// TestFailedSpawnLeavesNoChild: a guest can make spawn fail after the
// child is registered — a 1 MiB argv block of NULs is ~1M empty args,
// whose pointer array does not fit the child's data region. The child
// must be torn down: wait4(-1) returns instead of blocking forever on a
// child that never runs, and no pid stays live.
func TestFailedSpawnLeavesNoChild(t *testing.T) {
	l := linuxsim.New(hostos.New())
	install(t, l, "/bin/true", buildProg(t, func(b *asm.Builder) {
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, 0)
	}))
	install(t, l, "/bin/spawner", buildProg(t, func(b *asm.Builder) {
		b.String("path", "/bin/true")
		b.Zero("argv", 1<<20)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.SpawnPath(b, "path", 9, "argv", 1<<20)
		b.CmpI(isa.R0, 0)
		b.Jge("bad")
		b.MovRI(isa.R6, -1)
		ulib.Wait4(b, isa.R6)
		ulib.Exit(b, 0)
		b.Label("bad")
		b.Nop()
		ulib.Exit(b, 1)
	}))
	p, err := l.Spawn("/bin/spawner", nil, linuxsim.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() { done <- p.Wait() }()
	select {
	case status := <-done:
		if status != 0 {
			t.Fatalf("status = %d: spawn with a 1M-entry argv succeeded", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wait4(-1) blocked on the half-built child of a failed spawn")
	}
	if pids := l.Procs(); len(pids) != 0 {
		t.Fatalf("failed spawn left live pids %v", pids)
	}
}
