package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/workloads"
)

// Fig5aFish measures the Fish shell-pipeline execution time on the three
// systems (paper: Linux 1.4 ms, Occlum 19.5 ms, Graphene-SGX 9.5 s).
func Fig5aFish(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 5a — Fish shell pipeline execution time",
		Columns: []string{"time"},
		Unit:    "ms",
	}
	kernels, err := s.allKernels()
	if err != nil {
		return nil, err
	}
	for _, k := range kernels {
		driver, err := workloads.InstallFish(k, s.FishInput)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name(), err)
		}
		start := time.Now()
		status, err := workloads.RunToCompletion(k, driver, nil, io.Discard)
		if err != nil || status != 0 {
			return nil, fmt.Errorf("%s: status %d err %v", k.Name(), status, err)
		}
		t.Rows = append(t.Rows, Row{Label: k.Name(), Values: []float64{ms(time.Since(start))}})
	}
	return t, nil
}

// Fig5bGCC measures the compilation pipeline on three source sizes
// (paper: Occlum 3.6–9.2× slower than Linux, 3.8–42× faster than
// Graphene-SGX).
func Fig5bGCC(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 5b — GCC compilation time by source size",
		Columns: make([]string, len(s.GCCSources)),
		Unit:    "ms",
	}
	for i, sz := range s.GCCSources {
		t.Columns[i] = fmt.Sprintf("%dB src", sz)
	}
	kernels, err := s.allKernels()
	if err != nil {
		return nil, err
	}
	// Stage sizes scale with the chosen experiment scale; the cc1
	// stage carries the bulk of both compute and binary size.
	stages := []workloads.GCCStage{
		{Path: "/bin/cpp", Work: 2, Pad: 64 << 10},
		{Path: "/bin/cc1", Work: 10, Pad: int(min64i(int64(s.DomainData)/4, 8<<20))},
		{Path: "/bin/as", Work: 3, Pad: 128 << 10},
		{Path: "/bin/ld", Work: 2, Pad: 256 << 10},
	}
	for _, k := range kernels {
		row := Row{Label: k.Name()}
		for i, sz := range s.GCCSources {
			driver, err := workloads.InstallGCC(k, fmt.Sprintf("src%d", i), sz, stages)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", k.Name(), err)
			}
			start := time.Now()
			status, err := workloads.RunToCompletion(k, driver, nil, io.Discard)
			if err != nil || status != 0 {
				return nil, fmt.Errorf("%s src %d: status %d err %v", k.Name(), sz, status, err)
			}
			row.Values = append(row.Values, ms(time.Since(start)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig5cLighttpd measures web-server throughput against concurrency
// (paper: both SGX systems peak within ~10% of Linux).
func Fig5cLighttpd(s Scale) (*Table, error) {
	t := &Table{
		Title:   "Figure 5c — Lighttpd throughput vs concurrent clients",
		Columns: make([]string, len(s.HTTPConcurrency)),
		Unit:    "req/s",
	}
	for i, c := range s.HTTPConcurrency {
		t.Columns[i] = fmt.Sprintf("c=%d", c)
	}
	kernels, err := s.allKernels()
	if err != nil {
		return nil, err
	}
	const (
		basePort = 9000
		workers  = 2
	)
	for ki, k := range kernels {
		row := Row{Label: k.Name()}
		// One server instance serves every concurrency round: workers
		// run until StopHTTPD, so no respawn between rounds.
		port := uint16(basePort + ki)
		master, err := workloads.InstallHTTPD(k, port, workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name(), err)
		}
		p, err := k.Spawn(master, nil, nil)
		if err != nil {
			return nil, err
		}
		for _, c := range s.HTTPConcurrency {
			res := workloads.RunHTTPBench(k, port, c, s.HTTPRequests)
			if res.Failed > 0 {
				return nil, fmt.Errorf("%s c=%d: %d failed requests", k.Name(), c, res.Failed)
			}
			row.Values = append(row.Values, res.Throughput())
		}
		workloads.StopHTTPD(k, port, workers)
		if status := p.Wait(); status != 0 {
			return nil, fmt.Errorf("%s: master status %d", k.Name(), status)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func min64i(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
