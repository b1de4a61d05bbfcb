package eip

import (
	"crypto/sha256"
	"errors"

	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/mem"
	"repro/internal/sysdispatch"
)

// sysTable is the EIP's registration into the shared syscall spine. Like
// the native baseline, each EIP owns a goroutine and blocks inside the
// handlers. The enclave-per-process costs enter as the primitives:
// spawn builds, attests and migrates into a new enclave (Graphene.Spawn),
// pipes seal every message (encPipe), and open unseals a read-only
// protected file. The FS is read-only, so mkdir and unlink fail with
// EACCES; lseek, rename, fsync and signals are not modeled and answer
// -ENOSYS from the table. Built in init: the handlers close over Spawn,
// whose process loop dispatches through the table, and a variable
// initializer would make that reference cycle ill-formed.
var sysTable *sysdispatch.Table

func init() { sysTable = newSysTable() }

func newSysTable() *sysdispatch.Table {
	t := sysdispatch.NewTable()
	t.Register(libos.SysExit, sysdispatch.ExitHandler(func(k sysdispatch.Kernel, status int) {
		k.(*Proc).exit(status)
	}))
	t.Register(libos.SysWrite, sysdispatch.BlockingWrite)
	t.Register(libos.SysSend, sysdispatch.BlockingWrite)
	t.Register(libos.SysRead, sysdispatch.BlockingRead)
	t.Register(libos.SysRecv, sysdispatch.BlockingRead)
	t.Register(libos.SysWritev, sysdispatch.BlockingWritev)
	t.Register(libos.SysReadv, sysdispatch.BlockingReadv)
	t.Register(libos.SysOpen, sysdispatch.OpenHandler(func(k sysdispatch.Kernel, path string, _ uint64) (sysdispatch.File, int64) {
		data, err := k.(*Proc).g.readProtected(path)
		if err != nil {
			return nil, libos.ENOENT
		}
		return &roFile{data: data}, 0
	}))
	t.Register(libos.SysClose, sysdispatch.CloseFD)
	t.Register(libos.SysSpawn, sysdispatch.SpawnHandler(func(k sysdispatch.Kernel, path string, argv []string) int64 {
		p := k.(*Proc)
		child, err := p.g.Spawn(path, argv, SpawnOpt{Parent: p})
		if err != nil {
			return -libos.EAGAIN
		}
		return int64(child.pid)
	}))
	t.Register(libos.SysWait4, sysdispatch.Wait4Handler(func(k sysdispatch.Kernel, pid int) (int, int, int64, bool) {
		cpid, status, errno := k.(*Proc).wait4(pid)
		return cpid, status, errno, false
	}))
	t.Register(libos.SysPipe2, sysdispatch.Pipe2Handler(func(k sysdispatch.Kernel) (sysdispatch.File, sysdispatch.File) {
		// The pipe key would be agreed between the enclaves via local
		// attestation; derive it from the creating enclave identity.
		p := k.(*Proc)
		meas := p.encl.Measurement()
		ep := newEncPipe(sha256.Sum256(append(meas[:], byte(p.pid))))
		return &encPipeEnd{p: ep}, &encPipeEnd{p: ep, writing: true}
	}))
	t.Register(libos.SysDup2, sysdispatch.Dup2FD)
	t.Register(libos.SysGetpid, sysdispatch.Getpid)
	t.Register(libos.SysGetppid, sysdispatch.Getppid)
	t.Register(libos.SysMmap, sysdispatch.MmapHandler(func(k sysdispatch.Kernel) (*uint64, uint64) {
		p := k.(*Proc)
		return &p.heapPtr, p.heapEnd
	}))
	t.Register(libos.SysMunmap, sysdispatch.Munmap)
	t.Register(libos.SysFutex, sysdispatch.BlockingFutex(func(k sysdispatch.Kernel) (*mem.Paged, *hostos.Host) {
		p := k.(*Proc)
		return p.cpu.Mem, p.g.host
	}))
	libos.RegisterSockets(t, func(k sysdispatch.Kernel) *hostos.Host { return k.(*Proc).g.host }, libos.BlockingAccept)
	t.Register(libos.SysClock, sysdispatch.Clock)
	t.Register(libos.SysYield, sysdispatch.BlockingYield)
	readOnly := func(sysdispatch.Kernel, *[5]uint64) sysdispatch.Result {
		return sysdispatch.Errno(libos.EACCES) // read-only filesystem (Table 1)
	}
	t.Register(libos.SysMkdir, readOnly)
	t.Register(libos.SysUnlink, readOnly)
	return t
}

var errFault = errors.New("eip: bad user address")

// ReadUser implements sysdispatch.Kernel. Host-delegated operations model
// the OCALL path: arguments are copied out of the enclave into untrusted
// buffers and results copied back (the EENTER/EEXIT transition costs the
// paper's Lighttpd benchmark measures), and only the process's data
// region may be named.
func (p *Proc) ReadUser(addr, n uint64) ([]byte, error) {
	if !p.inData(addr, n) {
		return nil, errFault
	}
	b, err := p.cpu.Mem.ReadDirect(addr, int(n))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// WriteUser implements sysdispatch.Kernel: the copy back into the
// enclave, bounded like ReadUser.
func (p *Proc) WriteUser(addr uint64, b []byte) error {
	if !p.inData(addr, uint64(len(b))) || p.cpu.Mem.WriteAt(addr, b) != nil {
		return errFault
	}
	return nil
}

// FDs implements sysdispatch.Kernel.
func (p *Proc) FDs() *sysdispatch.FDTable { return p.fds }

func (p *Proc) inData(addr, n uint64) bool {
	end := addr + n
	return addr >= p.dataBase && end >= addr && end <= p.dataBase+p.dataSize
}

func (p *Proc) wait4(pid int) (int, int, int64) {
	g := p.g
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		found := false
		for cpid, c := range g.procs {
			if c.ppid != p.pid {
				continue
			}
			if pid >= 0 && cpid != pid {
				continue
			}
			found = true
			if c.exited {
				delete(g.procs, cpid)
				return cpid, c.status, 0
			}
		}
		if !found {
			return 0, 0, libos.ECHILD
		}
		g.procCond.Wait()
	}
}
