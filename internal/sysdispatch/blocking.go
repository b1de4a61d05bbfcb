package sysdispatch

import (
	"runtime"

	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/vm"
)

// The goroutine-per-process kernels — the native-Linux and EIP baselines
// — share more than handlers: each process owns a goroutine that runs
// its hart and blocks inside syscalls, so the process loop and trap
// path are common too. The LibOS instead runs SIPs as coroutines on a
// hart pool and keeps its own trap path (cfi_label checks, parking).

// RunBlocking is the process loop of a goroutine-per-process kernel: it
// runs cpu in slices of slice instructions and dispatches every trap
// through t with the trampoline calling convention (return address on
// the stack, number in R0, arguments in R1..R5, result in R0). Unlike
// the LibOS gate, it requires no cfi_label at the return address:
// baseline binaries are not MMDSFI-confined. It returns false once a
// handler reports the process exited, and true when the process
// faulted — including on popping the return address — which the caller
// turns into a fatal-signal exit.
func RunBlocking(t *Table, k Kernel, cpu *vm.CPU, slice uint64) (faulted bool) {
	// The handler call makes the argument array escape; hoisting it
	// keeps that one heap allocation per process, not per syscall.
	var a [5]uint64
	for {
		switch stop := cpu.Run(slice); stop.Reason {
		case vm.StopCycles, vm.StopPreempt:
			continue
		case vm.StopTrap:
			sp := cpu.Regs[isa.SP]
			retAddr, f := cpu.Mem.Load(sp, 8)
			if f != nil {
				return true
			}
			cpu.Regs[isa.SP] = sp + 8
			a = [5]uint64{
				cpu.Regs[isa.R1], cpu.Regs[isa.R2], cpu.Regs[isa.R3],
				cpu.Regs[isa.R4], cpu.Regs[isa.R5],
			}
			res := t.Dispatch(k, cpu.Regs[isa.R0], &a)
			if res.Exited {
				return false
			}
			cpu.Regs[isa.R0] = uint64(res.Ret)
			cpu.PC = retAddr
		default:
			return true
		}
	}
}

// MmapHandler builds mmap(2) over a per-process bump allocator: heap
// returns the caller's next-free pointer and the end of its heap.
// Addresses are handed out once and never reused, so the pages are
// still the zero fill of process creation.
func MmapHandler(heap func(k Kernel) (next *uint64, end uint64)) Handler {
	return func(k Kernel, a *[5]uint64) Result {
		next, end := heap(k)
		length := (a[0] + 4095) &^ 4095
		if *next+length > end {
			return Errno(ENOMEM)
		}
		addr := *next
		*next += length
		return Ok(int64(addr))
	}
}

// BlockingYield is the shared sched_yield(2) for goroutine-per-process
// kernels: the Go scheduler stands in for the host's.
func BlockingYield(Kernel, *[5]uint64) Result {
	runtime.Gosched()
	return Ok(0)
}

// BlockingFutex builds futex(2) for goroutine-per-process kernels,
// which block inside the handler. env returns the caller's memory —
// the FUTEX_WAIT value check is an 8-byte load with the hart's own
// fault and permission checks — and the host whose futex queue the
// caller sleeps on.
func BlockingFutex(env func(k Kernel) (*mem.Paged, *hostos.Host)) Handler {
	return func(k Kernel, a *[5]uint64) Result {
		m, host := env(k)
		op, addr, val := a[0], a[1], a[2]
		switch op {
		case FutexWait:
			cur, f := m.Load(addr, 8)
			if f != nil {
				return Errno(EFAULT)
			}
			if cur != val {
				return Errno(EAGAIN)
			}
			host.FutexWait(addr)
			return Ok(0)
		case FutexWake:
			return Ok(int64(host.FutexWake(addr, int(val))))
		}
		return Errno(EINVAL)
	}
}
