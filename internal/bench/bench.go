// Package bench regenerates every table and figure of the paper's
// evaluation (§9): the Fish/GCC/Lighttpd application benchmarks
// (Figure 5), the process-creation/pipe/file-I/O system-call benchmarks
// (Figure 6), the MMDSFI SPECint overheads and their breakdown
// (Figure 7), the RIPE security table (§9.3) and the SIP-vs-EIP
// comparison (Table 1).
//
// Absolute numbers differ from the paper (the substrate is an interpreter
// rather than an i7 with SGX silicon); the reproduction target is the
// shape: who wins, by roughly what factor, and where crossovers fall.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/libos"
	"repro/internal/workloads"
)

// Scale selects experiment sizes.
type Scale struct {
	// FishInput is the fish pipeline input size in bytes.
	FishInput int
	// GCCSources are the three source sizes of Figure 5b.
	GCCSources []int
	// HTTPRequests per concurrency point; HTTPConcurrency lists the
	// client counts of Figure 5c.
	HTTPRequests    int
	HTTPConcurrency []int
	// SpawnSizes are the binary data paddings of Figure 6a.
	SpawnSizes []SpawnBinary
	// PipeTotal bytes moved per pipe measurement; PipeBufs lists the
	// chunk sizes of Figure 6b.
	PipeTotal int
	PipeBufs  []int
	// FileTotal bytes per file I/O measurement; FileBufs lists the
	// buffer sizes of Figures 6c/6d.
	FileTotal int
	FileBufs  []int
	// SpecIters is the per-kernel iteration count of Figure 7.
	SpecIters int
	// C10KConns lists the concurrent-connection points of the C10K
	// table; C10KRequests is the total request budget per point (split
	// across connections, at least one round each).
	C10KConns    []int
	C10KRequests int
	// FSBenchTotal bytes move per fsbench sequential measurement in
	// FSBenchBuf chunks (total/buf must be a power of two for the
	// random-access rows); FSRandOps random-chunk operations;
	// FSMetaRounds rounds of the open/stat metadata storm.
	FSBenchTotal int
	FSBenchBuf   int
	FSRandOps    int
	FSMetaRounds int
	// IPCTotal bytes move per ipcbench measurement; IPCChunks lists the
	// per-round transfer sizes (each round is one 4-span writev, four
	// scalar writes, or splice calls until the chunk has moved).
	IPCTotal  int
	IPCChunks []int
	// EIPEnclave is the Graphene-SGX per-process enclave size.
	EIPEnclave uint64
	// OcclumDomains/DomainData size the Occlum enclave.
	OcclumDomains int
	DomainData    uint64

	// booted, when set (Run under Stats), collects the Occlum instances
	// the experiment boots, so Run can total their loader counters.
	booted *[]*libos.Occlum
}

// newOcclum boots an Occlum kernel, as workloads.NewOcclumKernel.
func (s Scale) newOcclum(spec workloads.KernelSpec) (*workloads.OcclumKernel, error) {
	k, err := workloads.NewOcclumKernel(spec)
	if err == nil && s.booted != nil {
		*s.booted = append(*s.booted, k.Sys.OS)
	}
	return k, err
}

// allKernels builds the three systems of a comparison run, as
// workloads.AllKernels.
func (s Scale) allKernels() ([]workloads.Kernel, error) {
	spec := s.kernelSpec()
	occ, err := s.newOcclum(spec)
	if err != nil {
		return nil, err
	}
	return []workloads.Kernel{workloads.NewLinuxKernel(spec), occ, workloads.NewEIPKernel(spec)}, nil
}

// SpawnBinary names one Figure 6a binary.
type SpawnBinary struct {
	Name string
	Pad  int
}

// Quick returns a scale suitable for CI and `go test -bench`.
func Quick() Scale {
	return Scale{
		FishInput:       16 << 10,
		GCCSources:      []int{256, 16 << 10, 160 << 10},
		HTTPRequests:    256,
		HTTPConcurrency: []int{1, 4, 16},
		SpawnSizes: []SpawnBinary{
			{"helloworld", 0},
			{"busybox", 400 << 10},
			{"cc1", 4 << 20},
		},
		PipeTotal:     1 << 20,
		PipeBufs:      []int{16, 256, 4096},
		FileTotal:     1 << 20,
		FileBufs:      []int{64, 1024, 16384},
		SpecIters:     300,
		C10KConns:     []int{64, 1024, 10240},
		C10KRequests:  4096,
		FSBenchTotal:  1 << 20,
		FSBenchBuf:    4096,
		FSRandOps:     256,
		FSMetaRounds:  150,
		IPCTotal:      16 << 20,
		IPCChunks:     []int{1 << 10, 64 << 10, 1 << 20},
		EIPEnclave:    32 << 20,
		OcclumDomains: 8,
		DomainData:    16 << 20,
	}
}

// Full returns the paper-shaped scale (minutes of wall time).
func Full() Scale {
	return Scale{
		FishInput:       64 << 10,
		GCCSources:      []int{200, 150 << 10, 1500 << 10},
		HTTPRequests:    512,
		HTTPConcurrency: []int{1, 2, 4, 8, 16, 32, 64, 128},
		SpawnSizes: []SpawnBinary{
			{"helloworld", 0},
			{"busybox", 400 << 10},
			{"cc1", 14 << 20},
		},
		PipeTotal:     8 << 20,
		PipeBufs:      []int{16, 64, 256, 1024, 4096},
		FileTotal:     4 << 20,
		FileBufs:      []int{4, 16, 64, 256, 1024, 4096, 16384},
		SpecIters:     2000,
		C10KConns:     []int{64, 1024, 10240, 102400},
		C10KRequests:  20480,
		FSBenchTotal:  8 << 20,
		FSBenchBuf:    4096,
		FSRandOps:     2048,
		FSMetaRounds:  1000,
		IPCTotal:      32 << 20,
		IPCChunks:     []int{1 << 10, 64 << 10, 1 << 20},
		EIPEnclave:    64 << 20,
		OcclumDomains: 8,
		DomainData:    32 << 20,
	}
}

func (s Scale) kernelSpec() workloads.KernelSpec {
	return workloads.KernelSpec{
		Domains:        s.OcclumDomains,
		DomainCode:     1 << 20,
		DomainData:     s.DomainData,
		EIPEnclaveSize: s.EIPEnclave,
	}
}

// Row is one labeled series of measurements.
type Row struct {
	Label  string
	Values []float64
}

// Table is one figure's worth of results.
type Table struct {
	Title   string
	Columns []string
	Unit    string
	Rows    []Row
}

// Print renders the table as aligned text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n%s\n", t.Title)
	fmt.Fprintf(w, "%-22s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(w, "%14s", c)
	}
	fmt.Fprintf(w, "  [%s]\n", t.Unit)
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-22s", r.Label)
		for _, v := range r.Values {
			fmt.Fprintf(w, "%14s", formatVal(v))
		}
		fmt.Fprintln(w)
	}
}

func formatVal(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1000000:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
