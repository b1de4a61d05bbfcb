// Package libos implements the Occlum LibOS (§6 of the paper): a single
// library operating system instance that hosts many SFI-Isolated
// Processes (SIPs) inside one enclave.
//
// The LibOS owns:
//
//   - the enclave and the preallocated MMDSFI domains (SGX 1.0 forbids
//     page changes after EINIT, so all domain pages are EADDed up front);
//   - the ELF loader with its four extra duties (signature check,
//     cfi_label domain-ID rewriting, trampoline injection, MPX bound
//     initialization);
//   - the syscall interface (spawn instead of fork, pipes and signals as
//     shared in-LibOS structures, futex via the host), dispatched through
//     the shared table of internal/sysdispatch;
//   - the virtual filesystem: a writable encrypted root, /dev and /proc;
//   - the M:N scheduler (internal/sched): a fixed pool of harts — one
//     per configured SGX TCS — multiplexes every SIP, so many more SIPs
//     than TCS entries can be live, and a SIP blocked in a syscall parks
//     instead of holding a hardware thread hostage.
package libos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/mem"
	"repro/internal/oelf"
	"repro/internal/sched"
	"repro/internal/sgx"
	"repro/internal/timerwheel"
)

// Config sizes the enclave and its domains.
type Config struct {
	// NumDomains is the number of preallocated MMDSFI domains (the
	// maximum number of concurrent SIPs).
	NumDomains int
	// DomainCodeSize is the code-region size per domain (bytes,
	// page-multiple).
	DomainCodeSize uint64
	// DomainDataSize is the data-region size per domain.
	DomainDataSize uint64
	// StackSize is the stack carved from the top of each data region.
	StackSize uint64
	// LibOSReserve is enclave memory reserved for the LibOS itself
	// (contributes to enclave measurement/creation cost).
	LibOSReserve uint64
	// MaxThreads is the number of SGX TCS — the size of the hart pool
	// the M:N scheduler runs SIPs on. It no longer caps concurrent
	// SIPs (NumDomains does): a blocked or runnable-but-descheduled
	// SIP holds no TCS.
	MaxThreads int
	// FSImage is the host file holding the encrypted filesystem.
	FSImage string
	// FSKey unseals the filesystem.
	FSKey fs.Key
	// FSBlocks sizes a newly created filesystem image.
	FSBlocks int
	// FSDataShards and FSParityShards select the Reed-Solomon stripe
	// geometry (k data + m parity shards per block) of a newly created
	// filesystem image. Zero keeps the built-in 4+2 default. The
	// geometry is a creation-time property recorded in the store
	// superblock; opening an existing image ignores these fields
	// (occlum-fs info shows what an image was formatted with).
	FSDataShards, FSParityShards int
	// BaseImage optionally names the host file holding a packed
	// read-only image (cmd/occlum-image). When set, the root mount
	// becomes a union: the integrity-verified image below, the writable
	// encrypted filesystem above (copy-up on first write).
	BaseImage string
	// BaseImageRoot is the pinned Merkle root hash of BaseImage — the
	// only trusted input of the image layer (in a real deployment it
	// would be part of the enclave measurement).
	BaseImageRoot [32]byte
	// Stdout receives /dev/console output (nil discards).
	Stdout io.Writer
	// VerifierKey is the signing key the loader trusts.
	VerifierKey oelf.SigningKey
	// CycleSlice is the interpreter cycle budget between LibOS
	// preemption points (signal checks).
	CycleSlice uint64
	// IdleTimeout, when positive, reaps accepted sockets that have seen
	// no I/O for this long: each accept arms a timer-wheel deadline
	// that lazily re-arms while the connection stays active and closes
	// the host connection once it idles out — the slowloris defense.
	IdleTimeout time.Duration
	// ShedThreshold, when positive, is the run-queue depth past which
	// the accept path sheds inbound connections (accept-and-close)
	// instead of admitting work the harts cannot keep up with.
	ShedThreshold int
}

// DefaultConfig returns a workable configuration: 8 domains of 1 MiB code
// + 4 MiB data.
func DefaultConfig() Config {
	return Config{
		NumDomains:     8,
		DomainCodeSize: 1 << 20,
		DomainDataSize: 4 << 20,
		StackSize:      256 << 10,
		LibOSReserve:   1 << 20,
		MaxThreads:     32,
		FSImage:        "occlum.img",
		FSKey:          fs.KeyFromString("occlum-default"),
		FSBlocks:       16384,
		VerifierKey:    oelf.NewSigningKey("occlum"),
		CycleSlice:     1 << 20,
	}
}

// Domain is one preallocated MMDSFI domain: [C][G1][D][G2].
type Domain struct {
	ID       uint32
	CodeBase uint64 // start of the code region C
	CodeSize uint64
	DataBase uint64 // start of the data region D
	DataSize uint64
	inUse    bool
}

// Occlum is one LibOS instance inside one enclave.
type Occlum struct {
	cfg      Config
	platform *sgx.Platform
	enclave  *sgx.Enclave
	host     *hostos.Host
	sched    *sched.Scheduler
	// wheels are the per-hart hierarchical timer wheels: every guest
	// deadline (poll/epoll timeouts, idle reaping) is an O(1) wheel
	// entry, and each wheel keeps at most ONE host timer outstanding —
	// so host timer pressure is bounded by MaxThreads, not by the
	// number of parked connections (the c100k property).
	wheels []*timerwheel.Wheel

	mu      sync.Mutex
	domains []*Domain
	procs   map[int]*Proc
	nextPID int
	// waitWakers holds the unpark callbacks of SIPs parked in wait4,
	// keyed by the waiting (parent) pid; every child teardown
	// broadcasts to its parent's entry.
	waitWakers map[int][]func()

	vfs   *fs.VFS
	encfs *fs.EncFS
	store *fs.BlockStore

	// binMu guards the verified-binary cache (loader.go): at most one
	// entry per file, the last content version verified.
	binMu    sync.Mutex
	bins     map[fs.FileID]verifiedBin
	binStats LoaderStats

	// BootStats records the cost of enclave creation.
	BootStats BootStats
}

// BootStats reports what enclave creation cost.
type BootStats struct {
	PagesAdded  uint64
	Measurement sgx.Measurement
}

// Boot errors.
var (
	// ErrNoDomains reports domain exhaustion at spawn.
	ErrNoDomains = errors.New("libos: no free MMDSFI domains")
	// ErrNoThreads reported SGX TCS exhaustion at spawn under the old
	// SIP-per-thread model. The M:N scheduler removed that limit (SIP
	// concurrency is bounded by domains only); the variable remains so
	// existing callers' errors.Is checks keep compiling.
	ErrNoThreads = errors.New("libos: no free SGX threads")
	// ErrTooBig reports a binary that does not fit a domain.
	ErrTooBig = errors.New("libos: binary does not fit in a domain")
	// ErrNotSigned reports a binary without a valid verifier signature.
	ErrNotSigned = errors.New("libos: binary not signed by the verifier")
)

// enclaveBase is where the enclave's ELRANGE starts.
const enclaveBase = 0x10000000

// Boot creates the enclave on platform, preallocates all domains (EADD +
// EEXTEND over every page — the real cryptographic cost of enclave
// creation), initializes it, and mounts the filesystems. A fresh
// encrypted image is created if none exists in host storage.
func Boot(platform *sgx.Platform, host *hostos.Host, cfg Config) (*Occlum, error) {
	if cfg.NumDomains <= 0 || cfg.MaxThreads <= 0 {
		return nil, fmt.Errorf("libos: bad config")
	}
	g := uint64(mem.PageSize) // guard size
	domSpan := cfg.DomainCodeSize + g + cfg.DomainDataSize + g
	total := cfg.LibOSReserve + g + uint64(cfg.NumDomains)*domSpan

	e, err := platform.ECreate(enclaveBase, total, cfg.MaxThreads)
	if err != nil {
		return nil, err
	}
	// LibOS reserve pages (RW; the LibOS "code" is this Go package).
	for off := uint64(0); off < cfg.LibOSReserve; off += mem.PageSize {
		if err := e.EAdd(enclaveBase+off, nil, mem.PermRW); err != nil {
			e.Destroy()
			return nil, err
		}
	}
	o := &Occlum{
		cfg:        cfg,
		platform:   platform,
		enclave:    e,
		host:       host,
		procs:      make(map[int]*Proc),
		nextPID:    1,
		waitWakers: make(map[int][]func()),
		bins:       make(map[fs.FileID]verifiedBin),
	}

	// Preallocate domains: code pages RWX (the loader rewrites them;
	// the common SGX-LibOS pitfall of §7), data pages RW, guards
	// unmapped.
	base := enclaveBase + cfg.LibOSReserve + g
	for i := 0; i < cfg.NumDomains; i++ {
		d := &Domain{
			ID:       uint32(i + 1),
			CodeBase: base,
			CodeSize: cfg.DomainCodeSize,
			DataBase: base + cfg.DomainCodeSize + g,
			DataSize: cfg.DomainDataSize,
		}
		for off := uint64(0); off < d.CodeSize; off += mem.PageSize {
			if err := e.EAdd(d.CodeBase+off, nil, mem.PermRWX); err != nil {
				e.Destroy()
				return nil, err
			}
		}
		for off := uint64(0); off < d.DataSize; off += mem.PageSize {
			if err := e.EAdd(d.DataBase+off, nil, mem.PermRW); err != nil {
				e.Destroy()
				return nil, err
			}
		}
		// EAdd's Map left the zero pages dirty; mark them clean so
		// freeDomain scrubs only what a SIP actually writes.
		if err := e.MarkClean(d.CodeBase, d.CodeSize); err != nil {
			e.Destroy()
			return nil, err
		}
		if err := e.MarkClean(d.DataBase, d.DataSize); err != nil {
			e.Destroy()
			return nil, err
		}
		o.domains = append(o.domains, d)
		base += domSpan
	}
	meas, err := e.EInit()
	if err != nil {
		e.Destroy()
		return nil, err
	}
	o.BootStats = BootStats{PagesAdded: e.PagesAdded(), Measurement: meas}

	if err := o.mountFilesystems(); err != nil {
		e.Destroy()
		return nil, err
	}
	// The hart pool starts last, once boot can no longer fail: one hart
	// per TCS, multiplexing every SIP this enclave will ever run.
	o.sched = sched.New(cfg.MaxThreads)
	// One driven timer wheel per hart, each backed by a single host
	// alarm (host.Timer); SIPs hash to a wheel by pid so deadline churn
	// spreads across the per-wheel locks.
	for i := 0; i < o.sched.NumHarts(); i++ {
		o.wheels = append(o.wheels, timerwheel.New(wheelTick, host.Timer))
	}
	registerWheels(o.wheels)
	// Idle harts scrub the encrypted store in the background: each hook
	// call verifies (and, where parity allows, repairs) a bounded window
	// of stripes, so latent host bit-rot is found while the enclave still
	// has redundancy to heal it — not at the next cold open. The hook
	// reports false once a full pass has seen no new writes, letting the
	// pool quiesce until the store is mutated again.
	o.sched.SetIdle(func() bool {
		worked, err := o.store.ScrubStep(scrubWindow)
		return worked && err == nil
	})
	return o, nil
}

// scrubWindow is how many blocks one idle-hook call scrubs — small
// enough that a freshly enqueued SIP waits at most one window behind
// background verification.
const scrubWindow = 32

// wheelTick is the timer-wheel resolution. 1ms matches poll(2)'s
// millisecond timeout ABI, so no guest deadline loses precision.
const wheelTick = time.Millisecond

// wheelFor picks the timer wheel owning a SIP's deadlines. The
// fibonacci multiply spreads consecutive pids across wheels.
func (o *Occlum) wheelFor(pid int) *timerwheel.Wheel {
	return o.wheels[(uint64(pid)*0x9e3779b97f4a7c15>>33)%uint64(len(o.wheels))]
}

// Wheels exposes the per-hart timer wheels (tests assert the ≤1 host
// timer per hart bound through them).
func (o *Occlum) Wheels() []*timerwheel.Wheel { return o.wheels }

// WheelStats sums activity across this LibOS's wheels.
func (o *Occlum) WheelStats() timerwheel.Stats {
	var t timerwheel.Stats
	for _, w := range o.wheels {
		s := w.Stats()
		t.Arms += s.Arms
		t.Fires += s.Fires
		t.Cancels += s.Cancels
		t.Cascades += s.Cascades
	}
	return t
}

func (o *Occlum) mountFilesystems() error {
	var store *fs.BlockStore
	var err error
	if !fs.StoreExists(o.host, o.cfg.FSImage) {
		k, m := o.cfg.FSDataShards, o.cfg.FSParityShards
		if k == 0 && m == 0 {
			store, err = fs.CreateStore(o.host, o.cfg.FSImage, o.cfg.FSKey, o.cfg.FSBlocks)
		} else {
			store, err = fs.CreateStoreGeom(o.host, o.cfg.FSImage, o.cfg.FSKey, o.cfg.FSBlocks, k, m)
		}
		if err != nil {
			return err
		}
		if err := fs.Mkfs(store); err != nil {
			return err
		}
	} else {
		store, err = fs.OpenStore(o.host, o.cfg.FSImage, o.cfg.FSKey)
		if err != nil {
			return err
		}
	}
	o.store = store
	o.encfs, err = fs.Mount(store)
	if err != nil {
		return err
	}
	root := fs.FileSystem(o.encfs)
	if o.cfg.BaseImage != "" {
		img, err := fs.MountImage(o.host, o.cfg.BaseImage, o.cfg.BaseImageRoot)
		if err != nil {
			return err
		}
		root = fs.NewUnionFS(o.encfs, img)
	}
	o.vfs = fs.NewVFS()
	o.vfs.Mount("/", root)
	o.vfs.Mount("/dev", fs.NewDevFS(o.cfg.Stdout))
	o.vfs.Mount("/proc", newProcFS(o))
	return nil
}

// VFS exposes the LibOS filesystem (for image preparation and tests).
func (o *Occlum) VFS() *fs.VFS { return o.vfs }

// Host returns the untrusted host beneath this LibOS.
func (o *Occlum) Host() *hostos.Host { return o.host }

// Store exposes the encrypted block store (for scrub/repair tooling and
// tests).
func (o *Occlum) Store() *fs.BlockStore { return o.store }

// Sync flushes the encrypted filesystem to host storage and kicks the
// scheduler so the idle scrubber re-verifies the mutated store even when
// the mutation came from a host thread (no hart would wake otherwise).
func (o *Occlum) Sync() error {
	err := o.encfs.Sync()
	o.sched.Kick()
	return err
}

// Shutdown flushes state, stops the hart pool and releases the enclave.
// Processes should have exited.
func (o *Occlum) Shutdown() error {
	err := o.encfs.Sync()
	retireWheels(o.wheels)
	o.sched.Stop()
	o.enclave.Destroy()
	return err
}

// Sched exposes the hart-pool scheduler (stats and tests).
func (o *Occlum) Sched() *sched.Scheduler { return o.sched }

// InstallBinary writes a marshaled binary into the LibOS filesystem at
// path — the "occlum build" step that prepares an image.
func (o *Occlum) InstallBinary(path string, bin *oelf.Binary) error {
	f, err := o.vfs.Open(path, fs.OWrOnly|fs.OCreate|fs.OTrunc)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteAt(bin.Marshal(), 0)
	return err
}

func (o *Occlum) allocDomain() (*Domain, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, d := range o.domains {
		if !d.inUse {
			d.inUse = true
			return d, nil
		}
	}
	return nil, ErrNoDomains
}

// freeDomain scrubs both regions so the next SIP cannot observe stale
// data — inter-process isolation across domain reuse — and returns the
// domain to the pool. Only the pages written since the domain was last
// scrubbed hold anything to scrub (mem.Paged.ZeroDirty), so the cost is
// O(pages written), not O(domain size). It returns the pages zeroed.
func (o *Occlum) freeDomain(d *Domain) int {
	n := o.enclave.ZeroDirty(d.CodeBase, d.CodeSize) +
		o.enclave.ZeroDirty(d.DataBase, d.DataSize)
	o.mu.Lock()
	d.inUse = false
	o.mu.Unlock()
	return n
}

// readUserString copies a NUL-free string of length n from user memory,
// validating that the range lies inside the calling SIP's data region
// (the sanity checks of the syscall entry path).
func (p *Proc) readUserBytes(addr, n uint64) ([]byte, error) {
	if n > 1<<20 {
		return nil, errors.New("libos: user buffer too large")
	}
	if !p.inData(addr, n) {
		return nil, errors.New("libos: user pointer outside domain data region")
	}
	b, err := p.os.enclave.ReadDirect(addr, int(n))
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, b)
	return out, nil
}

func (p *Proc) writeUserBytes(addr uint64, b []byte) error {
	if !p.inData(addr, uint64(len(b))) {
		return errors.New("libos: user pointer outside domain data region")
	}
	// WriteAt is permission-checked, which is the point here: syscall
	// results may only land in the SIP's (never-executable) data pages.
	// Translated-code caches are unaffected either way — generation
	// stamps are page-granular, and these pages hold no code.
	if f := p.os.enclave.WriteAt(addr, b); f != nil {
		return f
	}
	return nil
}

func (p *Proc) inData(addr, n uint64) bool {
	d := p.dom
	end := addr + n
	return addr >= d.DataBase && end >= addr && end <= d.DataBase+d.DataSize
}

func (p *Proc) readUserU64(addr uint64) (uint64, error) {
	b, err := p.readUserBytes(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (p *Proc) writeUserU64(addr, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return p.writeUserBytes(addr, b[:])
}
