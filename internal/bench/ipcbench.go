package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/ulib"
	"repro/internal/workloads"
)

// IPCBench measures the zero-copy data plane on the Occlum kernel:
// bytes/s through a pipe and through a loopback socket, moved by the
// scalar copy path, by the vectored lending path (a 4-span gather per
// chunk — the natural writev shape, where the scalar equivalent is four
// write calls), and by splice (pipe→socket without the payload ever
// entering guest-visible staging). The splice rows are self-checking:
// the experiment fails if any payload byte crosses the copied ledger
// while splice is the mover.
func IPCBench(s Scale) (*Table, error) {
	t := &Table{
		Title:   "ipcbench — zero-copy data plane (Occlum): scalar vs vectored vs splice",
		Columns: make([]string, len(s.IPCChunks)),
		Unit:    "MB/s",
	}
	for i, c := range s.IPCChunks {
		t.Columns[i] = fmt.Sprintf("%dKiB", c>>10)
	}
	k, err := s.newOcclum(s.kernelSpec())
	if err != nil {
		return nil, err
	}
	defer k.Sys.OS.Shutdown()

	// The pipe sinks: one per plumbing style so a vectored writer is
	// paired with a vectored reader (the row measures the whole path).
	for _, d := range []struct {
		path     string
		vectored bool
	}{{"/bin/ipcdrain-s", false}, {"/bin/ipcdrain-v", true}} {
		prog, err := buildIPCDrain(d.vectored)
		if err != nil {
			return nil, err
		}
		if err := k.InstallProgram(d.path, prog); err != nil {
			return nil, err
		}
	}

	type mode struct {
		label string
		kind  string // "pipe", "sock", "splice"
		vec   bool
	}
	modes := []mode{
		{"pipe scalar", "pipe", false},
		{"pipe writev", "pipe", true},
		{"sock scalar", "sock", false},
		{"sock writev", "sock", true},
		{"pipe→sock splice", "splice", false},
	}
	for mi, m := range modes {
		row := Row{Label: m.label}
		for ci, chunk := range s.IPCChunks {
			port := uint16(9500 + mi*len(s.IPCChunks) + ci)
			path := fmt.Sprintf("/bin/ipc%d-%d", mi, ci)
			var prog *asm.Program
			switch m.kind {
			case "pipe":
				drain := "/bin/ipcdrain-s"
				if m.vec {
					drain = "/bin/ipcdrain-v"
				}
				prog, err = buildIPCPipePump(s.IPCTotal, chunk, m.vec, drain)
			case "sock":
				prog, err = buildIPCSockPump(s.IPCTotal, chunk, port, m.vec)
			case "splice":
				fill, ferr := buildIPCFill(s.IPCTotal, chunk)
				if ferr != nil {
					return nil, ferr
				}
				fillPath := fmt.Sprintf("/bin/ipcfill%d", ci)
				if err := k.InstallProgram(fillPath, fill); err != nil {
					return nil, err
				}
				prog, err = buildIPCSplice(s.IPCTotal, chunk, port, fillPath)
			}
			if err != nil {
				return nil, err
			}
			if err := k.InstallProgram(path, prog); err != nil {
				return nil, err
			}
			var drained chan error
			if m.kind != "pipe" {
				drained = hostDrain(k, port, s.IPCTotal)
			}
			net0 := libos.NetStats()
			start := time.Now()
			status, rerr := workloads.RunToCompletion(k, path, nil, io.Discard)
			if rerr != nil || status != 0 {
				return nil, fmt.Errorf("ipcbench %s chunk %d: status %d err %v",
					m.label, chunk, status, rerr)
			}
			if drained != nil {
				if err := <-drained; err != nil {
					return nil, fmt.Errorf("ipcbench %s chunk %d: %w", m.label, chunk, err)
				}
			}
			elapsed := time.Since(start)
			if m.kind == "splice" {
				// The zero-copy invariant, enforced on every run: with
				// a vectored filler and a splice mover no payload byte
				// may be staged. (The copied ledger counts only data
				// bytes, so the control plane cannot perturb it.)
				d := libos.NetStats().Sub(net0)
				if d.Splices == 0 {
					return nil, fmt.Errorf("ipcbench splice chunk %d: no splice syscalls recorded", chunk)
				}
				if d.BytesCopied != 0 {
					return nil, fmt.Errorf("ipcbench splice chunk %d: %d bytes staged through the copy path, want 0",
						chunk, d.BytesCopied)
				}
			}
			row.Values = append(row.Values,
				float64(s.IPCTotal)/(1<<20)/elapsed.Seconds())
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// hostDrain dials the SIP's listening port from the host side and reads
// exactly total bytes, reporting on the returned channel.
func hostDrain(k workloads.Kernel, port uint16, total int) chan error {
	ch := make(chan error, 1)
	go func() {
		// Generous deadline: under -race with the whole tree testing in
		// parallel, spawn→listen can take seconds. Success exits early.
		conn, err := k.Host().Dial(port)
		for deadline := time.Now().Add(60 * time.Second); err != nil && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			conn, err = k.Host().Dial(port)
		}
		if err != nil {
			ch <- fmt.Errorf("dial %d: %w", port, err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 256<<10)
		got := 0
		for got < total {
			n, rerr := conn.Read(buf)
			got += n
			if rerr != nil {
				break
			}
		}
		if got < total {
			ch <- fmt.Errorf("drain %d: got %d of %d bytes", port, got, total)
			return
		}
		ch <- nil
	}()
	return ch
}

// emitGather fills iovec entries 0..3 of iovSym with the four quarters
// of the chunk buffer (clobbers R5, R8, R9).
func emitGather(b *asm.Builder, iovSym, bufSym string, chunk int) {
	span := chunk / 4
	for i := 0; i < 4; i++ {
		b.LeaData(isa.R5, bufSym)
		if off := i * span; off > 0 {
			b.AddI(isa.R5, int32(off))
		}
		ulib.IovSetReg(b, iovSym, int64(i), isa.R5, int64(span))
	}
}

// emitScalarQuarters emits four scalar writes covering the chunk buffer
// (the scalar equivalent of the 4-span gather), asserting each moves its
// full quarter. fd must already be in a register ≠ R1..R3.
func emitScalarQuarters(b *asm.Builder, fd isa.Reg, bufSym string, chunk int, sysno int64, failLabel string) {
	span := chunk / 4
	for i := 0; i < 4; i++ {
		b.MovRR(isa.R1, fd)
		b.LeaData(isa.R2, bufSym)
		if off := i * span; off > 0 {
			b.AddI(isa.R2, int32(off))
		}
		b.MovRI(isa.R3, int64(span))
		ulib.Syscall(b, sysno)
		b.CmpI(isa.R0, int32(span))
		b.Jne(failLabel)
	}
}

// buildIPCDrain builds the pipe sink: close the inherited write end,
// then read fd60 to EOF in 64 KiB transfers — through the staging read
// path, or through a single-span readv (a lent view: one copy fewer).
func buildIPCDrain(vectored bool) (*asm.Program, error) {
	const buf = 64 << 10
	b := asm.NewBuilder()
	b.Zero("buf", buf)
	if vectored {
		b.Zero("iov", 16)
	}
	b.Entry("_start")
	ulib.Prologue(b)
	b.MovRI(isa.R1, workloads.FilterOut)
	ulib.Syscall(b, libos.SysClose)
	if vectored {
		ulib.IovSetSym(b, "iov", 0, "buf", buf)
		b.MovRI(isa.R6, workloads.FilterIn)
	}
	b.Label("loop")
	if vectored {
		ulib.Readv(b, isa.R6, "iov", 1)
	} else {
		b.MovRI(isa.R1, workloads.FilterIn)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, buf)
		ulib.Syscall(b, libos.SysRead)
	}
	b.CmpI(isa.R0, 0)
	b.Jg("loop")
	ulib.Exit(b, 0)
	return b.Finish()
}

// buildIPCPipePump builds the pipe measurement program: create a pipe,
// spawn the matching drain, push total bytes in chunk-sized rounds —
// each round either one 4-span writev or four scalar writes — and wait.
func buildIPCPipePump(total, chunk int, vectored bool, drainPath string) (*asm.Program, error) {
	b := asm.NewBuilder()
	b.Zero("pfds", 16)
	b.Zero("chunk", chunk)
	if vectored {
		b.Zero("iov", 64)
	}
	b.String("drain", drainPath)
	b.Entry("_start")
	ulib.Prologue(b)
	ulib.Pipe2(b, "pfds")
	// fd60 ← read end (the drain's input), fd61 ← write end.
	b.LoadData(isa.R6, "pfds")
	b.MovRR(isa.R1, isa.R6)
	b.MovRI(isa.R2, workloads.FilterIn)
	ulib.Syscall(b, libos.SysDup2)
	ulib.Close(b, isa.R6)
	b.LeaData(isa.R6, "pfds")
	b.Load(isa.R6, isa.Mem(isa.R6, 8))
	b.MovRR(isa.R1, isa.R6)
	b.MovRI(isa.R2, workloads.FilterOut)
	ulib.Syscall(b, libos.SysDup2)
	ulib.Close(b, isa.R6)
	ulib.SpawnPath(b, "drain", int64(len(drainPath)), "", 0)
	b.MovRR(isa.R10, isa.R0) // drain pid
	b.MovRI(isa.R1, workloads.FilterIn)
	ulib.Syscall(b, libos.SysClose)
	if vectored {
		emitGather(b, "iov", "chunk", chunk)
	}
	b.MovRI(isa.R6, workloads.FilterOut)
	b.MovRI(isa.R7, int64(total))
	b.Label("pump")
	if vectored {
		ulib.Writev(b, isa.R6, "iov", 4)
		b.CmpI(isa.R0, int32(chunk))
		b.Jne("fail")
	} else {
		emitScalarQuarters(b, isa.R6, "chunk", chunk, libos.SysWrite, "fail")
	}
	b.SubI(isa.R7, int32(chunk))
	b.CmpI(isa.R7, 0)
	b.Jg("pump")
	b.MovRI(isa.R1, workloads.FilterOut)
	ulib.Syscall(b, libos.SysClose)
	ulib.Wait4(b, isa.R10)
	ulib.Exit(b, 0)
	b.Label("fail")
	b.Nop()
	ulib.Exit(b, 1)
	return b.Finish()
}

// buildIPCSockPump builds the socket measurement program: listen on
// port, accept the host drain's connection, push total bytes in
// chunk-sized rounds (one writev or four scalar sends each), close.
func buildIPCSockPump(total, chunk int, port uint16, vectored bool) (*asm.Program, error) {
	b := asm.NewBuilder()
	b.Zero("chunk", chunk)
	if vectored {
		b.Zero("iov", 64)
	}
	b.Entry("_start")
	ulib.Prologue(b)
	ulib.Socket(b)
	b.MovRR(isa.R6, isa.R0)
	b.CmpI(isa.R6, 0)
	b.Jl("fail")
	ulib.Bind(b, isa.R6, int64(port))
	b.CmpI(isa.R0, 0)
	b.Jl("fail")
	ulib.ListenSock(b, isa.R6)
	b.MovRR(isa.R1, isa.R6)
	ulib.Syscall(b, libos.SysAccept)
	b.MovRR(isa.R7, isa.R0)
	b.CmpI(isa.R7, 0)
	b.Jl("fail")
	if vectored {
		emitGather(b, "iov", "chunk", chunk)
	}
	b.MovRI(isa.R10, int64(total))
	b.Label("pump")
	if vectored {
		ulib.Writev(b, isa.R7, "iov", 4)
		b.CmpI(isa.R0, int32(chunk))
		b.Jne("fail")
	} else {
		emitScalarQuarters(b, isa.R7, "chunk", chunk, libos.SysSend, "fail")
	}
	b.SubI(isa.R10, int32(chunk))
	b.CmpI(isa.R10, 0)
	b.Jg("pump")
	ulib.Close(b, isa.R7)
	ulib.Close(b, isa.R6)
	ulib.Exit(b, 0)
	b.Label("fail")
	b.Nop()
	ulib.Exit(b, 1)
	return b.Finish()
}

// buildIPCFill builds the splice feeder: close the inherited read end,
// writev total bytes into the pipe write end (lent, never staged), close
// it so the splicer sees EOF after the last byte.
func buildIPCFill(total, chunk int) (*asm.Program, error) {
	b := asm.NewBuilder()
	b.Zero("chunk", chunk)
	b.Zero("iov", 64)
	b.Entry("_start")
	ulib.Prologue(b)
	b.MovRI(isa.R1, workloads.FilterIn)
	ulib.Syscall(b, libos.SysClose)
	emitGather(b, "iov", "chunk", chunk)
	b.MovRI(isa.R6, workloads.FilterOut)
	b.MovRI(isa.R7, int64(total))
	b.Label("pump")
	ulib.Writev(b, isa.R6, "iov", 4)
	b.CmpI(isa.R0, int32(chunk))
	b.Jne("fail")
	b.SubI(isa.R7, int32(chunk))
	b.CmpI(isa.R7, 0)
	b.Jg("pump")
	b.MovRI(isa.R1, workloads.FilterOut)
	ulib.Syscall(b, libos.SysClose)
	ulib.Exit(b, 0)
	b.Label("fail")
	b.Nop()
	ulib.Exit(b, 1)
	return b.Finish()
}

// buildIPCSplice builds the splice mover: accept the host drain on
// port, create the pipe, spawn the feeder, then splice pipe→socket
// until total bytes have moved. The payload is produced by the feeder
// and consumed by the host; this process never maps a byte of it.
func buildIPCSplice(total, chunk int, port uint16, fillPath string) (*asm.Program, error) {
	b := asm.NewBuilder()
	b.Zero("pfds", 16)
	b.String("fill", fillPath)
	b.Entry("_start")
	ulib.Prologue(b)
	ulib.Socket(b)
	b.MovRR(isa.R6, isa.R0)
	b.CmpI(isa.R6, 0)
	b.Jl("fail")
	ulib.Bind(b, isa.R6, int64(port))
	b.CmpI(isa.R0, 0)
	b.Jl("fail")
	ulib.ListenSock(b, isa.R6)
	b.MovRR(isa.R1, isa.R6)
	ulib.Syscall(b, libos.SysAccept)
	b.MovRR(isa.R7, isa.R0)
	b.CmpI(isa.R7, 0)
	b.Jl("fail")
	ulib.Close(b, isa.R6)
	ulib.Pipe2(b, "pfds")
	b.LoadData(isa.R6, "pfds")
	b.MovRR(isa.R1, isa.R6)
	b.MovRI(isa.R2, workloads.FilterIn)
	ulib.Syscall(b, libos.SysDup2)
	ulib.Close(b, isa.R6)
	b.LeaData(isa.R6, "pfds")
	b.Load(isa.R6, isa.Mem(isa.R6, 8))
	b.MovRR(isa.R1, isa.R6)
	b.MovRI(isa.R2, workloads.FilterOut)
	ulib.Syscall(b, libos.SysDup2)
	ulib.Close(b, isa.R6)
	ulib.SpawnPath(b, "fill", int64(len(fillPath)), "", 0)
	b.MovRR(isa.R10, isa.R0) // feeder pid
	b.MovRI(isa.R1, workloads.FilterOut)
	ulib.Syscall(b, libos.SysClose)
	b.MovRI(isa.R6, workloads.FilterIn)
	b.MovRI(isa.R5, int64(total))
	b.Label("pump")
	ulib.Splice(b, isa.R6, isa.R7, int64(chunk))
	b.CmpI(isa.R0, 0)
	b.Jle("fail") // EOF before total ⇒ the feeder under-delivered
	b.Sub(isa.R5, isa.R0)
	b.CmpI(isa.R5, 0)
	b.Jg("pump")
	ulib.Wait4(b, isa.R10)
	ulib.Close(b, isa.R7)
	ulib.Exit(b, 0)
	b.Label("fail")
	b.Nop()
	ulib.Exit(b, 1)
	return b.Finish()
}
