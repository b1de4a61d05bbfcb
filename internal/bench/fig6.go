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

// buildTrivial builds a program that exits immediately, padded with
// static data to the requested binary size (Figure 6a's hello/busybox/cc1
// size ladder).
func buildTrivial(pad int) (*asm.Program, error) {
	b := asm.NewBuilder()
	if pad > 0 {
		b.Bytes("pad", make([]byte, pad))
	}
	b.Entry("_start")
	ulib.Prologue(b)
	ulib.Exit(b, 0)
	return b.Finish()
}

// Fig6aSpawn measures process-creation latency for three binary sizes
// (paper: Occlum 97 µs → 63 ms scaling with size; Linux ≈ 170 µs flat;
// Graphene-SGX 0.64–0.89 s dominated by enclave creation).
func Fig6aSpawn(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 6a — process creation latency by binary size",
		Columns: make([]string, len(s.SpawnSizes)),
		Unit:    "ms",
	}
	for i, sb := range s.SpawnSizes {
		t.Columns[i] = sb.Name
	}
	kernels, err := s.allKernels()
	if err != nil {
		return nil, err
	}
	for _, k := range kernels {
		row := Row{Label: k.Name()}
		for _, sb := range s.SpawnSizes {
			prog, err := buildTrivial(sb.Pad)
			if err != nil {
				return nil, err
			}
			path := "/bin/" + sb.Name
			if err := k.InstallProgram(path, prog); err != nil {
				return nil, fmt.Errorf("%s %s: %w", k.Name(), sb.Name, err)
			}
			// Warm once (fills the native page cache, as the
			// paper's measurements do), then take the best of 3.
			if _, err := workloads.RunToCompletion(k, path, nil, nil); err != nil {
				return nil, err
			}
			best := time.Duration(1 << 62)
			for i := 0; i < 3; i++ {
				start := time.Now()
				status, err := workloads.RunToCompletion(k, path, nil, nil)
				if err != nil || status != 0 {
					return nil, fmt.Errorf("%s: status %d err %v", k.Name(), status, err)
				}
				if d := time.Since(start); d < best {
					best = d
				}
			}
			row.Values = append(row.Values, ms(best))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// buildPipePump builds the Figure 6b measurement program: it creates a
// pipe, spawns a drain process, pumps total bytes through in chunks of
// the given size, and waits.
func buildPipePump(total, chunk int) (*asm.Program, error) {
	b := asm.NewBuilder()
	b.Zero("pfds", 16)
	b.Zero("chunk", chunk)
	b.String("drain", "/bin/drain")
	b.Entry("_start")
	ulib.Prologue(b)
	ulib.Pipe2(b, "pfds")
	// fd60 ← read end (drain's input), fd61 ← write end.
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
	ulib.SpawnPath(b, "drain", 10, "", 0)
	b.MovRR(isa.R9, isa.R0) // drain pid
	// The parent no longer needs the read end.
	b.MovRI(isa.R1, workloads.FilterIn)
	ulib.Syscall(b, libos.SysClose)
	// Pump.
	b.MovRI(isa.R8, int64(total/chunk))
	b.Label("pump")
	b.MovRI(isa.R1, workloads.FilterOut)
	b.LeaData(isa.R2, "chunk")
	b.MovRI(isa.R3, int64(chunk))
	ulib.Syscall(b, libos.SysWrite)
	b.SubI(isa.R8, 1)
	b.CmpI(isa.R8, 0)
	b.Jg("pump")
	b.MovRI(isa.R1, workloads.FilterOut)
	ulib.Syscall(b, libos.SysClose)
	ulib.Wait4(b, isa.R9)
	ulib.Exit(b, 0)
	return b.Finish()
}

// buildDrain builds the pipe sink: close the inherited write end, then
// read fd60 to EOF.
func buildDrain() (*asm.Program, error) {
	b := asm.NewBuilder()
	b.Zero("buf", 4096)
	b.Entry("_start")
	ulib.Prologue(b)
	b.MovRI(isa.R1, workloads.FilterOut)
	ulib.Syscall(b, libos.SysClose)
	b.Label("loop")
	b.MovRI(isa.R1, workloads.FilterIn)
	b.LeaData(isa.R2, "buf")
	b.MovRI(isa.R3, 4096)
	ulib.Syscall(b, libos.SysRead)
	b.CmpI(isa.R0, 0)
	b.Jg("loop")
	ulib.Exit(b, 0)
	return b.Finish()
}

// Fig6bPipe measures pipe throughput across chunk sizes (paper: Occlum ≈
// Linux, both >3× Graphene-SGX whose pipes encrypt every message).
func Fig6bPipe(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 6b — pipe throughput by buffer size",
		Columns: make([]string, len(s.PipeBufs)),
		Unit:    "MB/s",
	}
	for i, bs := range s.PipeBufs {
		t.Columns[i] = fmt.Sprintf("%dB", bs)
	}
	kernels, err := s.allKernels()
	if err != nil {
		return nil, err
	}
	for _, k := range kernels {
		drain, err := buildDrain()
		if err != nil {
			return nil, err
		}
		if err := k.InstallProgram("/bin/drain", drain); err != nil {
			return nil, err
		}
		row := Row{Label: k.Name()}
		for bi, bs := range s.PipeBufs {
			pump, err := buildPipePump(s.PipeTotal, bs)
			if err != nil {
				return nil, err
			}
			path := fmt.Sprintf("/bin/pump%d", bi)
			if err := k.InstallProgram(path, pump); err != nil {
				return nil, err
			}
			start := time.Now()
			status, err := workloads.RunToCompletion(k, path, nil, io.Discard)
			if err != nil || status != 0 {
				return nil, fmt.Errorf("%s buf %d: status %d err %v", k.Name(), bs, status, err)
			}
			mbps := float64(s.PipeTotal) / (1 << 20) / time.Since(start).Seconds()
			row.Values = append(row.Values, mbps)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// buildFileIO builds the Figure 6c/6d measurement program: sequential
// writes (write=true) or reads over total bytes with the given buffer.
func buildFileIO(path string, total, buf int, write bool) (*asm.Program, error) {
	b := asm.NewBuilder()
	b.String("path", path)
	b.Zero("buf", buf)
	b.Entry("_start")
	ulib.Prologue(b)
	flags := int64(libos.ORdOnly)
	if write {
		flags = libos.ORdWr | libos.OCreate | libos.OTrunc
	}
	ulib.OpenPath(b, "path", int64(len(path)), flags)
	b.MovRR(isa.R7, isa.R0)
	b.CmpI(isa.R7, 0)
	b.Jl("fail")
	b.MovRI(isa.R8, int64(total/buf))
	b.Label("loop")
	b.MovRR(isa.R1, isa.R7)
	b.LeaData(isa.R2, "buf")
	b.MovRI(isa.R3, int64(buf))
	if write {
		ulib.Syscall(b, libos.SysWrite)
	} else {
		ulib.Syscall(b, libos.SysRead)
	}
	// Every transfer must move the full buffer (EOF or a read-only FS
	// shows up as a short or failed transfer → exit 1).
	b.CmpI(isa.R0, int32(buf))
	b.Jne("fail")
	b.SubI(isa.R8, 1)
	b.CmpI(isa.R8, 0)
	b.Jg("loop")
	ulib.Close(b, isa.R7)
	ulib.Exit(b, 0)
	b.Label("fail")
	b.Nop()
	ulib.Exit(b, 1)
	return b.Finish()
}

// Fig6cdFileIO measures sequential file I/O throughput on Linux ext4 vs
// Occlum's encrypted FS (paper: Occlum 39% below ext4 on reads, 18% on
// writes; Graphene-SGX excluded — no writable FS). write selects 6d.
func Fig6cdFileIO(s Scale, write bool) (*Table, error) {
	name, fig := "reads", "6c"
	if write {
		name, fig = "writes", "6d"
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure %s — sequential file %s by buffer size", fig, name),
		Columns: make([]string, len(s.FileBufs)),
		Unit:    "MB/s",
	}
	for i, bs := range s.FileBufs {
		t.Columns[i] = fmt.Sprintf("%dB", bs)
	}
	spec := s.kernelSpec()
	occ, err := s.newOcclum(spec)
	if err != nil {
		return nil, err
	}
	kernels := []workloads.Kernel{workloads.NewLinuxKernel(spec), occ}
	for _, k := range kernels {
		row := Row{Label: k.Name()}
		for bi, bs := range s.FileBufs {
			if bs > s.FileTotal {
				row.Values = append(row.Values, 0)
				continue
			}
			file := fmt.Sprintf("/data/io%d.bin", bi)
			// Pre-create (with content for the read case): this also
			// ensures /data exists on filesystems with real
			// directories.
			content := make([]byte, s.FileTotal)
			if write {
				content = nil
			}
			if err := k.WriteInput(file, content); err != nil {
				return nil, err
			}
			prog, err := buildFileIO(file, s.FileTotal, bs, write)
			if err != nil {
				return nil, err
			}
			path := fmt.Sprintf("/bin/io%v%d", write, bi)
			if err := k.InstallProgram(path, prog); err != nil {
				return nil, err
			}
			start := time.Now()
			status, err := workloads.RunToCompletion(k, path, nil, nil)
			if err != nil || status != 0 {
				return nil, fmt.Errorf("%s buf %d: status %d err %v", k.Name(), bs, status, err)
			}
			mbps := float64(s.FileTotal) / (1 << 20) / time.Since(start).Seconds()
			row.Values = append(row.Values, mbps)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
