package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/libos"
	"repro/internal/mmdsfi"
	"repro/internal/oelf"
	"repro/internal/sched"
	"repro/internal/ulib"
	"repro/internal/verifier"
	"repro/internal/vm"
)

// The system under test, identical for every workload.
const (
	numDomains = 16
	domainCode = 1 << 20
	domainData = 16 << 20
	// numHarts matches a 2-CPU machine; the LibOS default of two harts
	// per domain would put 32 hart goroutines on 2 CPUs.
	numHarts   = 2
	numClients = 2
)

const (
	// warmup is the untimed phase that lets block and trace caches and
	// lazy set-up finish before timing starts.
	warmup = time.Second
	// exitProbes is how many trivial SIPs the traced run spawns and
	// reaps to time exit and domain teardown.
	exitProbes = 20
	// loaderReps is how many times the traced run replays the loading
	// of each binary.
	loaderReps = 3
	// setupReps is how many times a run sets up; setup_s is the median
	// and the last system set up is the one measured.
	setupReps = 5
)

// signingKey is the verifier key set-up signs with and the LibOS trusts.
var signingKey = oelf.NewSigningKey("mtbench")

type runConfig struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      bool
	spansFile  string
	corruptRef bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable summary lines printed before the JSON.
	notes []string
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latencyReservoir caps the latency samples a client keeps: past it,
// a uniform sample of the correct ops is kept, so memory (and with it
// peak_rss_mb) does not grow with throughput.
const latencyReservoir = 1 << 16

// phase is the outcome of running the clients for a while.
type phase struct {
	ok, failed int
	// lat holds the latencies of correct ops, sorted: all of them, or
	// a uniform sample of latencyReservoir per client.
	lat      []time.Duration
	elapsed  time.Duration
	firstErr error
}

func (p phase) ops() int { return p.ok + p.failed }

// rate is correct ops per second.
func (p phase) rate() float64 { return float64(p.ok) / p.elapsed.Seconds() }

// runPhase runs every client in a closed loop until d has passed and
// each has done at least minOps ops. The first minOps ops of a client
// walk ops 0..minOps-1 in order, so they can include check-only ones;
// later ones draw one of the inputs from a seeded stream.
func runPhase(clients []client, inputs int, seed, salt uint64, d time.Duration, minOps int, tr *tracer) phase {
	parts := make([]phase, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for id, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, salt+uint64(id)))
			sample := rand.New(rand.NewPCG(seed, ^(salt + uint64(id))))
			p := &parts[id]
			p.lat = make([]time.Duration, 0, latencyReservoir)
			for k := 0; k < minOps || time.Now().Before(deadline); k++ {
				in := rng.IntN(inputs)
				if k < minOps {
					in = (k + id) % minOps
				}
				t := tr.newOp()
				t0 := time.Now()
				err := c.op(in, t)
				lat := time.Since(t0)
				tr.finish(t)
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
					continue
				}
				p.ok++
				if len(p.lat) < latencyReservoir {
					p.lat = append(p.lat, lat)
				} else if j := sample.IntN(p.ok); j < latencyReservoir {
					p.lat[j] = lat
				}
			}
		}()
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start)}
	for _, p := range parts {
		out.ok += p.ok
		out.failed += p.failed
		out.lat = append(out.lat, p.lat...)
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	sort.Slice(out.lat, func(i, j int) bool { return out.lat[i] < out.lat[j] })
	return out
}

// percentile is the nearest-rank percentile of sorted durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// div is a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setupSystem boots the system under test and compiles, verifies and
// installs every binary and input of w: what a user pays before the
// first op.
func setupSystem(w workload, t *opTrace) (*core.System, error) {
	lc := libos.DefaultConfig()
	lc.NumDomains = numDomains
	lc.DomainCodeSize = domainCode
	lc.DomainDataSize = domainData
	lc.MaxThreads = numHarts
	lc.VerifierKey = signingKey
	s := t.begin("sgx.boot", -1)
	sys, err := core.BootSystem(core.SystemConfig{LibOS: lc})
	t.end(s)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if err := install(sys, w.programs(), t); err != nil {
		sys.OS.Shutdown()
		return nil, err
	}
	for _, f := range w.files() {
		s := t.begin("fs.install", -1)
		err := sys.WriteFile(f.path, f.data)
		t.end(s)
		if err != nil {
			sys.OS.Shutdown()
			return nil, fmt.Errorf("install %s: %w", f.path, err)
		}
	}
	return sys, nil
}

// install compiles each program through MMDSFI instrumentation, linking
// and the verifier, and writes the signed binary into the encrypted FS.
func install(sys *core.System, progs []program, t *opTrace) error {
	ver := verifier.New(signingKey)
	for _, p := range progs {
		s := t.begin("asm.build", -1)
		prog, err := p.build()
		t.end(s)
		if err != nil {
			return fmt.Errorf("build %s: %w", p.path, err)
		}
		s = t.begin("mmdsfi.instrument", -1)
		ip, err := mmdsfi.Instrument(prog, mmdsfi.DefaultOptions())
		t.end(s)
		if err != nil {
			return fmt.Errorf("instrument %s: %w", p.path, err)
		}
		s = t.begin("asm.link", -1)
		img, err := asm.Link(ip)
		t.end(s)
		if err != nil {
			return fmt.Errorf("link %s: %w", p.path, err)
		}
		bin := oelf.FromImage(p.path, img)
		s = t.begin("verifier.sign", -1)
		err = ver.VerifyAndSign(bin)
		t.end(s)
		if err != nil {
			return fmt.Errorf("verify %s: %w", p.path, err)
		}
		s = t.begin("fs.install", -1)
		err = sys.InstallBinary(p.path, bin)
		t.end(s)
		if err != nil {
			return fmt.Errorf("install %s: %w", p.path, err)
		}
	}
	return nil
}

// setupTimes is the cost of one set-up: its wall time and the time of
// each set-up span, summed by name.
type setupTimes struct {
	Seconds  float64            `json:"setup_s"`
	LayersMS map[string]float64 `json:"layers_ms"`
}

func msByName(d map[string]time.Duration) map[string]float64 {
	out := map[string]float64{}
	for name, v := range d {
		out[name] = ms(v)
	}
	return out
}

// setupOnce sets up the system for a workload once and shuts it down.
func setupOnce(workloadName string, seed uint64) (setupTimes, error) {
	w, err := newWorkload(workloadName, seed)
	if err != nil {
		return setupTimes{}, err
	}
	o := newTracer().newOp()
	t0 := time.Now()
	sys, err := setupSystem(w, o)
	if err != nil {
		return setupTimes{}, err
	}
	st := setupTimes{time.Since(t0).Seconds(), msByName(o.sums())}
	return st, sys.OS.Shutdown()
}

// runChild runs this program in a child process with flag and the
// workload and seed of cfg, and decodes the JSON object on the last
// line of its standard output into out.
func runChild(cfg runConfig, out any, flag ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	args := append(flag, "--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10))
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %s: %w", strings.Join(args, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], out); err != nil {
		return fmt.Errorf("child %s output: %w", strings.Join(args, " "), err)
	}
	return nil
}

// counters snapshots the counters the layers export. They are
// process-global, hence one workload and one LibOS per process.
type counters struct {
	vm    vm.CacheStats
	sched sched.Snapshot
	net   libos.NetSnapshot
	fs    fs.StatCounters
}

func snapshot() counters {
	return counters{vm.GlobalCacheStats(), sched.GlobalSnapshot(), libos.NetStats(), fs.Stats()}
}

func (c counters) sub(o counters) counters {
	v, p := c.vm, o.vm
	return counters{
		vm: vm.CacheStats{
			Blocks: v.Blocks - p.Blocks, Hits: v.Hits - p.Hits, Misses: v.Misses - p.Misses,
			Flushes: v.Flushes - p.Flushes, Threaded: v.Threaded - p.Threaded,
			TraceInsts: v.TraceInsts - p.TraceInsts,
			ICHits:     v.ICHits - p.ICHits, ICMisses: v.ICMisses - p.ICMisses,
		},
		sched: c.sched.Sub(o.sched),
		net:   c.net.Sub(o.net),
		fs:    c.fs.Sub(o.fs),
	}
}

// probeExit spawns a trivial exit-0 SIP n times and returns the median
// time from Spawn returning to Wait returning: SIP exit plus domain
// teardown.
func probeExit(sys *core.System, n int, tr *tracer) (float64, error) {
	const path = "/bin/true"
	exit0 := func() (*asm.Program, error) {
		b := asm.NewBuilder()
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, 0)
		return b.Finish()
	}
	if err := install(sys, []program{{path, exit0}}, nil); err != nil {
		return 0, err
	}
	var d []float64
	for i := 0; i < n; i++ {
		o := tr.newOp()
		root := o.begin("probe", -1)
		s := o.begin("probe.spawn", root)
		p, err := sys.OS.Spawn(path, nil, libos.SpawnOpt{})
		o.end(s)
		if err != nil {
			return 0, fmt.Errorf("spawn %s: %w", path, err)
		}
		s = o.begin("probe.exit", root)
		st := p.Wait()
		o.end(s)
		o.end(root)
		d = append(d, ms(o.dur(s)))
		tr.finish(o)
		if st != 0 {
			return 0, fmt.Errorf("%s exited with status %d", path, st)
		}
	}
	return median(d), nil
}

// loaderCost is what loading a set of binaries costs, layer by layer.
type loaderCost struct{ readMS, unmarshalMS, verifyMS, mb float64 }

// replayLoader repeats, from outside the LibOS, the loader's work for
// each binary: VFS read, OELF unmarshal and signature check. Each step
// is the median over reps, summed over the binaries.
func replayLoader(sys *core.System, paths []string, reps int, tr *tracer) (loaderCost, error) {
	var c loaderCost
	for _, path := range paths {
		var rd, um, vf []float64
		size := 0
		for i := 0; i < reps; i++ {
			o := tr.newOp()
			root := o.begin("replay", -1)
			s := o.begin("fs.binary_read", root)
			raw, err := sys.ReadFile(path)
			o.end(s)
			if err != nil {
				return c, fmt.Errorf("read %s: %w", path, err)
			}
			rd = append(rd, ms(o.dur(s)))
			s = o.begin("oelf.unmarshal", root)
			bin, err := oelf.Unmarshal(raw)
			o.end(s)
			if err != nil {
				return c, fmt.Errorf("unmarshal %s: %w", path, err)
			}
			um = append(um, ms(o.dur(s)))
			s = o.begin("oelf.sig_verify", root)
			err = signingKey.Verify(bin)
			o.end(s)
			if err != nil {
				return c, fmt.Errorf("verify %s: %w", path, err)
			}
			vf = append(vf, ms(o.dur(s)))
			o.end(root)
			tr.finish(o)
			size = len(raw)
		}
		c.readMS += median(rd)
		c.unmarshalMS += median(um)
		c.verifyMS += median(vf)
		c.mb += float64(size) / (1 << 20)
	}
	return c, nil
}

// peakRSSMB is the process's maximum resident set size so far.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// opSpans are the spans an op records whose self times the traced run
// reports; fs.write, a leaf, is already fs.write_ms_per_op.
var opSpans = []string{
	"op", "libos.spawn", "libos.job_wait", "fs.readback",
	"hostos.send", "hostos.first_byte", "hostos.recv", "bench.check",
}

// setupLayers are the set-up spans, one per layer call.
var setupLayers = []struct{ span, metric string }{
	{"sgx.boot", "sgx.boot_ms"},
	{"asm.build", "asm.build_ms"},
	{"mmdsfi.instrument", "mmdsfi.instrument_ms"},
	{"asm.link", "asm.link_ms"},
	{"verifier.sign", "verifier.sign_ms"},
	{"fs.install", "fs.install_ms"},
}

// run performs one benchmark run: reference outputs on linuxsim, set-up,
// warm-up, then the measured phase. With cfg.trace it splits the time
// between an untraced and a traced phase and reports per-layer metrics;
// otherwise it reports the end-to-end metrics.
func run(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	// The reference outputs are computed in a child process, like all
	// but the last set-up, so that their memory stays out of
	// peak_rss_mb: a shut-down system does not hand all its memory back.
	var want [][]byte
	if err := runChild(cfg, &want, "--reference-only"); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if cfg.corruptRef {
		for _, b := range want {
			b[0] ^= 0xff
		}
	}
	if err := w.expect(want); err != nil {
		return nil, err
	}

	var setups []setupTimes
	for i := 1; i < setupReps; i++ {
		var st setupTimes
		if err := runChild(cfg, &st, "--setup-only"); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
	}
	setupTr := newTracer()
	o := setupTr.newOp()
	t0 := time.Now()
	sys, err := setupSystem(w, o)
	if err != nil {
		return nil, err
	}
	setups = append(setups, setupTimes{time.Since(t0).Seconds(), msByName(o.sums())})
	setupTr.finish(o)
	if err := install(sys, w.checkPrograms(), nil); err != nil {
		sys.OS.Shutdown()
		return nil, err
	}
	var setupS []float64
	setupMS := map[string][]float64{}
	for _, s := range setups {
		setupS = append(setupS, s.Seconds)
		for name, v := range s.LayersMS {
			setupMS[name] = append(setupMS[name], v)
		}
	}

	var tr, lifeTr *tracer
	if cfg.trace {
		tr, lifeTr = newTracer(), newTracer()
	}
	lt := lifeTr.newOp()
	if err := w.start(sys, lt); err != nil {
		sys.OS.Shutdown()
		return nil, err
	}
	clients := make([]client, numClients)
	for i := range clients {
		if clients[i], err = w.newClient(i); err != nil {
			return nil, err
		}
	}
	writes := func() (n, b int64) {
		for _, c := range clients {
			cn, cb := c.fsWrites()
			n, b = n+cn, b+cb
		}
		return
	}

	warm := runPhase(clients, w.inputs(), cfg.seed, 100, warmup, w.inputs()+w.checkJobs(), nil)
	runtime.GC()
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure /= 2
	}
	before := snapshot()
	n0, bb0 := writes()
	main := runPhase(clients, w.inputs(), cfg.seed, 200, measure, 0, nil)
	delta := snapshot().sub(before)
	n1, bb1 := writes()
	var traced phase
	if cfg.trace {
		traced = runPhase(clients, w.inputs(), cfg.seed, 300, measure, 0, tr)
	}
	for _, c := range clients {
		c.close()
	}
	stopErr := w.stop()
	lifeTr.finish(lt)

	r := &result{Metrics: map[string]metric{}}
	r.Attempted = warm.ops() + main.ops() + traced.ops()
	r.Failed = warm.failed + main.failed + traced.failed
	r.Correct = r.Failed == 0 && stopErr == nil
	for _, p := range []phase{warm, main, traced} {
		if p.firstErr != nil {
			r.note("first failure: %v", p.firstErr)
			break
		}
	}
	if stopErr != nil {
		r.note("stop: %v", stopErr)
	}

	if cfg.trace {
		exitMS, err := probeExit(sys, exitProbes, tr)
		if err != nil {
			return nil, fmt.Errorf("exit probe: %w", err)
		}
		paths, perOp := w.loaderSet()
		lc, err := replayLoader(sys, paths, loaderReps, tr)
		if err != nil {
			return nil, fmt.Errorf("loader replay: %w", err)
		}
		if !perOp {
			// Spawned once for the run: amortise over every op served.
			n := float64(r.Attempted)
			lc = loaderCost{lc.readMS / n, lc.unmarshalMS / n, lc.verifyMS / n, lc.mb / n}
		}
		layerMetrics(r, layerInputs{
			sys: sys, setupMS: setupMS, delta: delta, main: main, traced: traced,
			tr: tr, lifeTr: lifeTr, exitMS: exitMS, loader: lc,
			writes: float64(n1 - n0), writeBytes: float64(bb1 - bb0),
		})
		if cfg.spansFile != "" {
			if err := writeSpans(cfg.spansFile, setupTr, lifeTr, tr); err != nil {
				return nil, err
			}
			r.note("spans written to %s", cfg.spansFile)
		}
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := sys.OS.Shutdown(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}

	p99 := percentile(main.lat, 0.99)
	beyond := 0
	for _, l := range main.lat {
		if l > p99 {
			beyond++
		}
	}
	r.note("workload=%s seed=%d clients=%d harts=%d domains=%d", cfg.workload, cfg.seed, numClients, numHarts, numDomains)
	r.note("measured %d ops in %.2fs (%d correct, %d failed); p99 from %d latency samples, %d beyond it",
		main.ops(), main.elapsed.Seconds(), main.ok, main.failed, len(main.lat), beyond)
	r.note("failed_ratio=%g (%d of %d ops, warm-up included)", div(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	r.note("setup_s per rep: %v", setupS)
	if !cfg.trace {
		r.set("ops_per_s", main.rate(), "1/s")
		r.set("latency_p50_ms", ms(percentile(main.lat, 0.50)), "ms")
		r.set("latency_p99_ms", ms(p99), "ms")
		r.set("setup_s", median(setupS), "s")
		r.set("peak_rss_mb", peak, "MB")
	}
	return r, nil
}

// layerInputs is what the per-layer metrics are computed from.
type layerInputs struct {
	sys                *core.System
	setupMS            map[string][]float64
	delta              counters // over the untraced phase
	main, traced       phase
	tr, lifeTr         *tracer
	exitMS             float64
	loader             loaderCost
	writes, writeBytes float64 // stdout-node writes over the untraced phase
}

// layerMetrics fills the per-layer metrics of a traced run. Counter
// metrics are per op of the untraced phase; span metrics are per op of
// the traced phase.
func layerMetrics(r *result, in layerInputs) {
	n := float64(in.main.ops())
	nt := float64(in.traced.ops())
	tr := in.tr

	for _, l := range setupLayers {
		r.set(l.metric, median(in.setupMS[l.span]), "ms")
	}
	r.set("sgx.epc_mb", float64(in.sys.Platform.EPCUsed())/(1<<20), "MB")

	// SIP lifecycle. Spawn and job wait come from the ops' spans. A
	// workload whose ops spawn nothing reports its server's one Spawn
	// and no job wait: the server lives for the whole run.
	spawn, wait := tr.meanMS("libos.spawn"), tr.meanMS("libos.job_wait")
	if len(tr.dur["libos.spawn"]) == 0 {
		spawn, wait = in.lifeTr.meanMS("libos.spawn"), 0
	}
	r.set("libos.spawn_ms", spawn, "ms")
	r.set("libos.job_wait_ms", wait, "ms")
	r.set("libos.exit_ms", in.exitMS, "ms")
	s := in.delta.sched
	sips := div(float64(s.Tasks), n)
	r.set("sched.sips_per_op", sips, "count")
	r.set("sched.busy_ms_per_op", div(float64(s.BusyNS)/1e6, n), "ms")
	r.set("sched.hart_util", s.Utilization(), "ratio")
	r.set("sched.parks_per_op", div(float64(s.Parks), n), "count")
	r.set("sched.steals_per_op", div(float64(s.Steals), n), "count")
	r.set("sched.preempts_per_op", div(float64(s.Preempts), n), "count")

	// Loader replay.
	lc := in.loader
	r.set("fs.binary_read_ms_per_op", lc.readMS, "ms")
	r.set("oelf.unmarshal_ms_per_op", lc.unmarshalMS, "ms")
	r.set("oelf.sig_verify_ms_per_op", lc.verifyMS, "ms")
	r.set("oelf.binary_mb_per_op", lc.mb, "MB")

	// Guest execution.
	v := in.delta.vm
	r.set("vm.threaded_insts_per_op", div(float64(v.Threaded), n), "count")
	r.set("vm.trace_inst_share", div(float64(v.TraceInsts), float64(v.Threaded)), "ratio")
	r.set("vm.block_hit_ratio", div(float64(v.Hits), float64(v.Hits+v.Misses)), "ratio")
	r.set("vm.ic_hit_ratio", div(float64(v.ICHits), float64(v.ICHits+v.ICMisses)), "ratio")
	r.set("vm.blocks_decoded_per_op", div(float64(v.Blocks), n), "count")
	r.set("vm.flushes_per_op", div(float64(v.Flushes), n), "count")

	// File output and the encrypted store.
	writeMS := div(ms(tr.total("fs.write")), nt)
	r.set("fs.write_ms_per_op", writeMS, "ms")
	r.set("fs.writes_per_op", div(in.writes, n), "count")
	r.set("fs.write_bytes_per_op", div(in.writeBytes, n), "B")
	r.set("fs.scrubbed_blocks_per_op", div(float64(in.delta.fs.ScrubbedBlocks), n), "count")

	// Network and syscalls.
	fb := append([]time.Duration(nil), tr.dur["hostos.first_byte"]...)
	sort.Slice(fb, func(i, j int) bool { return fb[i] < fb[j] })
	r.set("hostos.send_us", tr.meanMS("hostos.send")*1000, "us")
	r.set("hostos.first_byte_p50_us", float64(percentile(fb, 0.50))/1e3, "us")
	r.set("hostos.first_byte_p99_us", float64(percentile(fb, 0.99))/1e3, "us")
	ns := in.delta.net
	r.set("libos.epwaits_per_op", div(float64(ns.EpWaits), n), "count")
	r.set("libos.epwait_parks_per_op", div(float64(ns.EpWaitParks), n), "count")
	r.set("libos.eagains_per_op", div(float64(ns.EAgains), n), "count")
	r.set("libos.writevs_per_op", div(float64(ns.Writevs), n), "count")
	r.set("libos.zero_copy_ratio", div(float64(ns.BytesLent), float64(ns.BytesLent+ns.BytesCopied)), "ratio")

	// Self time per op of each span an op records.
	for _, name := range opSpans {
		r.set("self."+name+"_ms_per_op", div(ms(tr.self[name]), nt), "ms")
	}

	// Attribution of the mean traced op time.
	opMS := tr.meanMS("op")
	loaderMS := lc.readMS + lc.unmarshalMS + lc.verifyMS
	r.set("attr.exit_share", div(in.exitMS*sips, opMS), "ratio")
	r.set("attr.loader_share", div(loaderMS, opMS), "ratio")
	r.set("attr.fs_write_share", div(writeMS, opMS), "ratio")
	r.note("traced op %.4f ms: exit %.1f%% (%.3f ms x %.2f SIPs), loader %.1f%%, fs write %.1f%%",
		opMS, 100*div(in.exitMS*sips, opMS), in.exitMS, sips, 100*div(loaderMS, opMS), 100*div(writeMS, opMS))

	// Tracing overhead: traced minus untraced.
	r.set("trace.overhead_ops_pct", 100*div(in.main.rate()-in.traced.rate(), in.main.rate()), "%")
	r.set("trace.overhead_p50_ms", ms(percentile(in.traced.lat, 0.5)-percentile(in.main.lat, 0.5)), "ms")
}

// referenceOnce computes a workload's reference outputs.
func referenceOnce(workloadName string, seed uint64) ([][]byte, error) {
	w, err := newWorkload(workloadName, seed)
	if err != nil {
		return nil, err
	}
	return w.reference()
}
