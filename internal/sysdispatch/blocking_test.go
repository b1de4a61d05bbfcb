package sysdispatch

import (
	"testing"
	"time"

	"repro/internal/hostos"
	"repro/internal/mem"
)

// TestBlockingFutex pins the futex semantics both baselines register:
// the FUTEX_WAIT value check is a permission-checked 8-byte load (a
// fault, including a page mapped without read permission, is EFAULT),
// a stale value is EAGAIN, and a matching value sleeps on the host
// queue until FUTEX_WAKE.
func TestBlockingFutex(t *testing.T) {
	const base = 0x10000
	m := mem.NewPaged(base, 3*mem.PageSize)
	if err := m.Map(base, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(base+mem.PageSize, mem.PageSize, mem.PermW); err != nil {
		t.Fatal(err)
	}
	if f := m.Store(base+8, 8, 42); f != nil {
		t.Fatal(f)
	}
	host := hostos.New()
	h := BlockingFutex(func(Kernel) (*mem.Paged, *hostos.Host) { return m, host })
	k := newFakeKernel()
	call := func(op, addr, val uint64) int64 {
		a := [5]uint64{op, addr, val}
		return h(k, &a).Ret
	}

	if r := call(FutexWait, base+2*mem.PageSize, 0); r != -EFAULT {
		t.Fatalf("wait on unmapped page = %d, want -EFAULT", r)
	}
	if r := call(FutexWait, base+mem.PageSize, 0); r != -EFAULT {
		t.Fatalf("wait on write-only page = %d, want -EFAULT", r)
	}
	if r := call(FutexWait, base+8, 41); r != -EAGAIN {
		t.Fatalf("wait on stale value = %d, want -EAGAIN", r)
	}
	if r := call(7, base+8, 42); r != -EINVAL {
		t.Fatalf("unknown op = %d, want -EINVAL", r)
	}

	woke := make(chan int64, 1)
	go func() { woke <- call(FutexWait, base+8, 42) }()
	deadline := time.Now().Add(10 * time.Second)
	for call(FutexWake, base+8, 1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("FUTEX_WAKE never found the waiter")
		}
		time.Sleep(time.Millisecond)
	}
	if r := <-woke; r != 0 {
		t.Fatalf("woken wait = %d, want 0", r)
	}
}

// TestMmapHandler: page-rounded bump allocation, ENOMEM past the end.
func TestMmapHandler(t *testing.T) {
	next, end := uint64(0x1000), uint64(0x4000)
	h := MmapHandler(func(Kernel) (*uint64, uint64) { return &next, end })
	k := newFakeKernel()
	for _, c := range []struct {
		n    uint64
		want int64
	}{{1, 0x1000}, {4096, 0x2000}, {4097, -ENOMEM}, {4096, 0x3000}} {
		a := [5]uint64{c.n}
		if got := h(k, &a).Ret; got != c.want {
			t.Fatalf("mmap(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}
