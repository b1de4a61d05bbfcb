package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark: the smoke
// tests run it as a child process with runMainEnv set, so every run gets
// a process of its own, as the benchmark's runs do.
func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const runMainEnv = "MTBENCH_RUN_MAIN"

type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runTiny runs the benchmark at tiny scale and returns its result and
// summary lines.
func runTiny(t *testing.T, args ...string) (result, []string) {
	t.Helper()
	args = append([]string{"--seed", "7", "--seconds", "0.4"}, args...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("mtbench %v: %v\n%s", args, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return r, lines[:len(lines)-1]
}

// TestSmokeEmitsEveryMetric checks that each workload, untraced and
// traced, is correct and emits exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				r, notes := runTiny(t, "--workload", w.Name, "--trace", trace)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, strings.Join(notes, "\n"))
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
				if trace == "0" && !hasNote(notes, "failed_ratio=0 ") {
					t.Errorf("no failed_ratio=0 summary line:\n%s", strings.Join(notes, "\n"))
				}
			})
		}
	}
}

// TestSmokeCorruptReferenceFails feeds every workload a wrong reference
// output and checks that every op is reported as failed: the output
// check is live.
func TestSmokeCorruptReferenceFails(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r, notes := runTiny(t, "--workload", w.Name, "--trace", "0", "--corrupt-reference")
			if r.Correct || r.Attempted < 1 || r.Failed != r.Attempted {
				t.Fatalf("correct=%t attempted=%d failed=%d, want every op failed", r.Correct, r.Attempted, r.Failed)
			}
			if !hasNote(notes, errMismatch.Error()) {
				t.Errorf("failure is not an output mismatch:\n%s", strings.Join(notes, "\n"))
			}
		})
	}
}

// TestSortCheckCatchesUnsortedStream checks that on shell-pipeline,
// whose job output is only wc's byte count, a sort stage that passed its
// bytes through unsorted would still fail: the job keeps its count, but
// the check-only od | grep | sort op no longer matches.
func TestSortCheckCatchesUnsortedStream(t *testing.T) {
	w, err := newWorkload("shell-pipeline", 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := w.reference()
	if err != nil {
		t.Fatal(err)
	}
	n, checks := w.inputs(), w.checkJobs()
	if checks != n {
		t.Fatalf("%d check-only ops for %d inputs", checks, n)
	}
	// The same bytes in reverse: a stream that is not in byte order.
	for i := n; i < n+checks; i++ {
		b := append([]byte(nil), want[i]...)
		slices.Reverse(b)
		want[i] = b
	}
	if err := w.expect(want); err != nil {
		t.Fatal(err)
	}
	sys, err := setupSystem(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.OS.Shutdown()
	if err := install(sys, w.checkPrograms(), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.start(sys, nil); err != nil {
		t.Fatal(err)
	}
	c, err := w.newClient(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n+checks; i++ {
		err := c.op(i, nil)
		if i < n && err != nil {
			t.Errorf("job %d: %v, want its byte count to match", i, err)
		}
		if i >= n && err != errMismatch {
			t.Errorf("check-only op %d: %v, want %v", i, err, errMismatch)
		}
	}
	c.close()
	if err := w.stop(); err != nil {
		t.Error(err)
	}
}

// TestMetaMatchesBenchmark checks that meta.json describes the
// workloads BENCHMARK.json lists and predicts only metrics it names.
func TestMetaMatchesBenchmark(t *testing.T) {
	spec := loadSpec(t)
	b, err := os.ReadFile("meta.json")
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Workloads   []struct{ Name string } `json:"workloads"`
		Predictions []struct {
			Layer   string   `json:"layer"`
			Metrics []string `json:"metrics"`
			Moves   []struct {
				EndToEnd  string   `json:"end_to_end"`
				Workloads []string `json:"workloads"`
			} `json:"moves"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	workloads, e2e, layer := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = true
	}
	if len(meta.Workloads) != len(spec.Workloads) {
		t.Errorf("meta.json describes %d workloads, BENCHMARK.json lists %d", len(meta.Workloads), len(spec.Workloads))
	}
	for _, w := range meta.Workloads {
		if !workloads[w.Name] {
			t.Errorf("meta.json workload %s not in BENCHMARK.json", w.Name)
		}
	}
	for _, p := range meta.Predictions {
		for _, m := range p.Metrics {
			if !layer[m] {
				t.Errorf("%s: per-layer metric %s not in BENCHMARK.json", p.Layer, m)
			}
		}
		for _, mv := range p.Moves {
			if !e2e[mv.EndToEnd] {
				t.Errorf("%s: end-to-end metric %s not in BENCHMARK.json", p.Layer, mv.EndToEnd)
			}
			for _, w := range mv.Workloads {
				if !workloads[w] {
					t.Errorf("%s: workload %s not in BENCHMARK.json", p.Layer, w)
				}
			}
		}
	}
}

func hasNote(notes []string, s string) bool {
	for _, n := range notes {
		if strings.Contains(n, s) {
			return true
		}
	}
	return false
}
