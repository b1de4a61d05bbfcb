// Command mtbench is the multitasking benchmark of the Occlum
// reproduction. It runs one closed-loop workload against one booted
// Occlum instance, checks every op's output against reference outputs
// computed on the linuxsim baseline, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	mtbench --workload shell-pipeline --seed 1 --seconds 20 --trace 0
//
// Workloads: shell-pipeline, build-pipeline, http-keepalive. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it splits
// the time between an untraced and a traced phase and prints the
// per-layer metrics, the self time of each span, and the tracing
// overhead. meta.json describes the workloads, the system under test
// and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "shell-pipeline, build-pipeline or http-keepalive")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the job inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&cfg.spansFile, "spans", "", "file the traced run writes its spans to (JSON lines)")
	setupOnly := flag.Bool("setup-only", false, "set up once, print the set-up times as JSON and exit")
	referenceOnly := flag.Bool("reference-only", false, "print the reference outputs as JSON and exit")
	heldout := flag.Uint64("heldout-seed", 0, "if set, run again in a child process on inputs from this seed and report it alongside")
	flag.BoolVar(&cfg.corruptRef, "corrupt-reference", false, "flip a byte of every reference output, so every op must fail the check")
	flag.Parse()
	if cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "mtbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *trace == 1

	if *setupOnly || *referenceOnly {
		var v any
		var err error
		if *setupOnly {
			v, err = setupOnce(cfg.workload, cfg.seed)
		} else {
			v, err = referenceOnce(cfg.workload, cfg.seed)
		}
		if err == nil {
			var out []byte
			if out, err = json.Marshal(v); err == nil {
				fmt.Println(string(out))
				return
			}
		}
		fmt.Fprintf(os.Stderr, "mtbench: %v\n", err)
		os.Exit(1)
	}

	r, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtbench: %v\n", err)
		os.Exit(1)
	}
	if *heldout != 0 {
		// A process of its own, like every run: one Occlum instance per
		// process.
		hc := cfg
		hc.seed = *heldout
		args := []string{"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0"}
		if cfg.corruptRef {
			args = append(args, "--corrupt-reference")
		}
		var h result
		if err := runChild(hc, &h, args...); err != nil {
			fmt.Fprintf(os.Stderr, "mtbench: held-out seed %d: %v\n", *heldout, err)
			os.Exit(1)
		}
		r.note("held-out seed %d: correct=%t attempted=%d failed=%d", *heldout, h.Correct, h.Attempted, h.Failed)
		for _, name := range []string{"ops_per_s", "latency_p50_ms", "latency_p99_ms"} {
			m := h.Metrics[name]
			r.note("held-out seed %d: %s=%g %s", *heldout, name, m.Value, m.Unit)
		}
		r.Correct = r.Correct && h.Correct
	}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mtbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
