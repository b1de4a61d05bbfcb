package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/workloads"
)

// Table1 measures the three SIP-vs-EIP comparisons of the paper's
// Table 1 head to head: process creation (cheap vs expensive), IPC (cheap
// vs expensive) and the shared filesystem (writable vs read-only).
func Table1(s Scale, w io.Writer) error {
	spec := s.kernelSpec()
	occ, err := s.newOcclum(spec)
	if err != nil {
		return err
	}
	gra := workloads.NewEIPKernel(spec)

	fmt.Fprintf(w, "\nTable 1 — SIPs (Occlum) vs EIPs (Graphene-SGX)\n")

	// Process creation.
	var spawnTimes [2]time.Duration
	for i, k := range []workloads.Kernel{occ, gra} {
		prog, err := buildTrivial(0)
		if err != nil {
			return err
		}
		if err := k.InstallProgram("/bin/t1", prog); err != nil {
			return err
		}
		if _, err := workloads.RunToCompletion(k, "/bin/t1", nil, nil); err != nil {
			return err
		}
		start := time.Now()
		if _, err := workloads.RunToCompletion(k, "/bin/t1", nil, nil); err != nil {
			return err
		}
		spawnTimes[i] = time.Since(start)
	}
	fmt.Fprintf(w, "  Process creation:  Occlum %v, Graphene-SGX %v (%.0fx)\n",
		spawnTimes[0], spawnTimes[1], float64(spawnTimes[1])/float64(spawnTimes[0]))

	// IPC throughput (4 KiB chunks).
	var ipc [2]float64
	for i, k := range []workloads.Kernel{occ, gra} {
		drain, err := buildDrain()
		if err != nil {
			return err
		}
		if err := k.InstallProgram("/bin/drain", drain); err != nil {
			return err
		}
		pump, err := buildPipePump(s.PipeTotal, 4096)
		if err != nil {
			return err
		}
		if err := k.InstallProgram("/bin/t1pump", pump); err != nil {
			return err
		}
		start := time.Now()
		status, err := workloads.RunToCompletion(k, "/bin/t1pump", nil, nil)
		if err != nil || status != 0 {
			return fmt.Errorf("%s: status %d err %v", k.Name(), status, err)
		}
		ipc[i] = float64(s.PipeTotal) / (1 << 20) / time.Since(start).Seconds()
	}
	fmt.Fprintf(w, "  IPC (pipe, 4KiB):  Occlum %.0f MB/s, Graphene-SGX %.0f MB/s (%.1fx)\n",
		ipc[0], ipc[1], ipc[0]/ipc[1])

	// Shared filesystem: attempt a runtime write on each. The parent
	// directory is prepared at image time on both (that much even the
	// read-only FS allows); the *runtime write* is what differs.
	_ = occ.WriteInput("/data/prepared", nil)
	_ = gra.WriteInput("/data/prepared", nil)
	writable := func(k workloads.Kernel) bool {
		prog, err := buildFileIO("/data/t1probe", 4096, 4096, true)
		if err != nil {
			return false
		}
		if err := k.InstallProgram("/bin/t1w", prog); err != nil {
			return false
		}
		status, err := workloads.RunToCompletion(k, "/bin/t1w", nil, nil)
		return err == nil && status == 0
	}
	occW, graW := writable(occ), writable(gra)
	fmt.Fprintf(w, "  Shared encrypted FS: Occlum writable=%v, Graphene-SGX writable=%v\n", occW, graW)
	if !occW || graW {
		return fmt.Errorf("bench: Table 1 FS property mismatch (occlum=%v graphene=%v)", occW, graW)
	}
	return nil
}
