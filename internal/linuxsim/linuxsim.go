// Package linuxsim is the native-Linux baseline of the paper's
// evaluation: the same OVM programs and syscall ABI, but with no enclave,
// no MMDSFI instrumentation, a plaintext filesystem ("ext4"), and cheap
// process creation backed by a binary page cache (the analog of demand
// paging, which makes Linux's spawn time insensitive to binary size —
// Figure 6a).
package linuxsim

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/asm"
	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/mem"
	"repro/internal/oelf"
	"repro/internal/sysdispatch"
	"repro/internal/vm"
)

// Linux is one simulated native kernel.
type Linux struct {
	host *hostos.Host

	mu       sync.Mutex
	procCond *sync.Cond
	files    map[string][]byte       // plaintext "ext4"
	binCache map[string]*oelf.Binary // page cache of parsed binaries
	procs    map[int]*Proc
	nextPID  int

	// Config
	stackSize uint64
	heapSize  uint64
	slice     uint64
}

// New creates a kernel over the given host network substrate.
func New(host *hostos.Host) *Linux {
	l := &Linux{
		host:      host,
		files:     make(map[string][]byte),
		binCache:  make(map[string]*oelf.Binary),
		procs:     make(map[int]*Proc),
		nextPID:   1,
		stackSize: 256 << 10,
		heapSize:  4 << 20,
		slice:     1 << 20,
	}
	l.procCond = sync.NewCond(&l.mu)
	return l
}

// Host returns the network substrate.
func (l *Linux) Host() *hostos.Host { return l.host }

// WriteFile installs a plaintext file.
func (l *Linux) WriteFile(path string, data []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.files[path] = append([]byte(nil), data...)
	delete(l.binCache, path)
}

// ReadFile reads a plaintext file.
func (l *Linux) ReadFile(path string) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[path]
	if !ok {
		return nil, fmt.Errorf("linuxsim: %s: no such file", path)
	}
	return append([]byte(nil), f...), nil
}

// InstallBinary writes a marshaled binary to the plain filesystem.
func (l *Linux) InstallBinary(path string, bin *oelf.Binary) {
	l.WriteFile(path, bin.Marshal())
}

// Proc is one native process.
type Proc struct {
	l    *Linux
	pid  int
	ppid int
	cpu  *vm.CPU

	fds *sysdispatch.FDTable

	heapBase, heapEnd, heapPtr uint64
	dataBase, dataSize         uint64

	exited bool
	status int
	done   chan struct{}
}

// PID returns the process ID.
func (p *Proc) PID() int { return p.pid }

// PPID returns the parent process ID.
func (p *Proc) PPID() int { return p.ppid }

// Cycles returns retired instructions (final once Wait returns).
func (p *Proc) Cycles() uint64 { return p.cpu.Cycles }

// ReadUser implements sysdispatch.Kernel: native processes have no
// domain bounds, only page permissions.
func (p *Proc) ReadUser(addr, n uint64) ([]byte, error) {
	b, err := p.cpu.Mem.ReadDirect(addr, int(n))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// WriteUser implements sysdispatch.Kernel.
func (p *Proc) WriteUser(addr uint64, b []byte) error {
	if f := p.cpu.Mem.WriteAt(addr, b); f != nil {
		return errors.New("linuxsim: fault")
	}
	return nil
}

// FDs implements sysdispatch.Kernel.
func (p *Proc) FDs() *sysdispatch.FDTable { return p.fds }

// Wait blocks for exit and returns the status.
func (p *Proc) Wait() int {
	<-p.done
	return p.status
}

// SpawnOpt mirrors libos.SpawnOpt for the baseline.
type SpawnOpt struct {
	Parent                *Proc
	Stdin, Stdout, Stderr *libos.OpenFile
}

// lookupBinary consults the page cache, parsing at most once per file —
// the demand-paging analog that keeps Linux spawn time flat.
func (l *Linux) lookupBinary(path string) (*oelf.Binary, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b, ok := l.binCache[path]; ok {
		return b, nil
	}
	raw, ok := l.files[path]
	if !ok {
		return nil, fmt.Errorf("linuxsim: %s: no such file", path)
	}
	b, err := oelf.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	l.binCache[path] = b
	return b, nil
}

// Spawn creates a process running the binary at path (posix_spawn via
// vfork+execve in the paper's measurements).
func (l *Linux) Spawn(path string, argv []string, opt SpawnOpt) (*Proc, error) {
	bin, err := l.lookupBinary(path)
	if err != nil {
		return nil, err
	}
	img := &bin.Image

	const base = 0x400000
	trampSpan := uint64(mem.PageSize)
	codeBase := uint64(base) + trampSpan
	dataBase := codeBase + img.CodeSpan() + uint64(img.GuardSize)
	dataSize := (img.MinDataSize() + l.heapSize + l.stackSize + mem.PageSize - 1) / mem.PageSize * mem.PageSize
	as := mem.NewPaged(base, trampSpan+img.CodeSpan()+uint64(img.GuardSize)+dataSize+mem.PageSize)

	if err := as.Map(base, trampSpan+img.CodeSpan(), mem.PermRX); err != nil {
		return nil, err
	}
	if err := loadTrampoline(as, base); err != nil {
		return nil, err
	}
	if err := as.WriteDirect(codeBase, img.Code); err != nil {
		return nil, err
	}
	if err := as.Map(dataBase, dataSize, mem.PermRW); err != nil {
		return nil, err
	}
	if err := as.WriteDirect(dataBase, img.Data); err != nil {
		return nil, err
	}

	l.mu.Lock()
	pid := l.nextPID
	l.nextPID++
	p := &Proc{
		l: l, pid: pid, cpu: vm.New(as),
		fds:      sysdispatch.NewFDTable(),
		dataBase: dataBase, dataSize: dataSize,
		done: make(chan struct{}),
	}
	if opt.Parent != nil {
		p.ppid = opt.Parent.pid
	}
	l.procs[pid] = p
	l.mu.Unlock()

	if opt.Parent != nil {
		p.fds.InheritFrom(opt.Parent.fds)
	} else {
		libos.SetStdio(p.fds, opt.Stdin, opt.Stdout, opt.Stderr)
	}

	if err := setupStack(p, as, base, img, append([]string{path}, argv...),
		dataBase, dataSize, l.stackSize, &p.heapBase, &p.heapEnd); err != nil {
		// Tear the half-built child down, as libos.Spawn does: it
		// already holds a pid and references on the inherited fds.
		p.exit(127)
		return nil, err
	}
	p.heapPtr = p.heapBase

	go p.run()
	return p, nil
}

var errTooSmall = errors.New("linuxsim: address space too small")

func (p *Proc) run() {
	if sysdispatch.RunBlocking(sysTable, p, p.cpu, p.l.slice) {
		p.exit(128 + libos.SIGSEGV)
	}
}

func (p *Proc) exit(status int) {
	p.fds.CloseAll()
	l := p.l
	l.mu.Lock()
	p.exited = true
	p.status = status
	close(p.done)
	l.procCond.Broadcast()
	l.mu.Unlock()
}

// Procs returns live pids.
func (l *Linux) Procs() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int
	for pid, p := range l.procs {
		if !p.exited {
			out = append(out, pid)
		}
	}
	return out
}

// Sync is a no-op (plaintext FS has no deferred integrity state).
func (l *Linux) Sync() error { return nil }

var _ = asm.DefaultGuardSize // geometry shared with the toolchain
