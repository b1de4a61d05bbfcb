package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/workloads"
)

// program is one guest binary set-up compiles and installs.
type program struct {
	path  string
	build func() (*asm.Program, error)
}

// file is one seeded input set-up writes into the encrypted FS.
type file struct {
	path string
	data []byte
}

// workload is one closed-loop job mix. Its seeded inputs are fixed at
// construction; op i of a client runs against input i.
type workload interface {
	programs() []program
	files() []file
	// inputs is the number of distinct seeded inputs a timed op can pick.
	inputs() int
	// checkJobs is the number of check-only ops, numbered after the
	// timed inputs, that the untimed warm-up runs; checkPrograms are
	// their binaries, installed after set-up.
	checkJobs() int
	checkPrograms() []program
	// reference computes the expected output of every op, timed inputs
	// then check-only ones, on the linuxsim baseline, running the same
	// guest programs.
	reference() ([][]byte, error)
	// expect installs the expected outputs, one per op.
	expect(want [][]byte) error
	// start readies a booted system for ops; lt records the spans of
	// anything start spawns, which stop then reaps.
	start(sys *core.System, lt *opTrace) error
	stop() error
	newClient(id int) (client, error)
	// loaderSet lists the binaries whose loading the traced run replays,
	// and whether each op spawns them (true) or the set is spawned once
	// for the whole run (false).
	loaderSet() (paths []string, perOp bool)
}

// client runs ops one at a time, checking each output.
type client interface {
	op(input int, t *opTrace) error
	// fsWrites reports the writes and bytes its ops sent to their
	// stdout nodes.
	fsWrites() (writes, bytes int64)
	close()
}

var errMismatch = errors.New("output differs from the reference")

const (
	shellJobs      = 8
	shellInputSize = 4 << 10
	buildJobs      = 4
	buildInputSize = 64 << 10
	httpRequests   = 16
	httpPort       = 8080
)

func newWorkload(name string, seed uint64) (workload, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6d7462656e6368))
	switch name {
	case "shell-pipeline":
		stages := []program{
			{"/bin/od", workloads.BuildOd},
			{"/bin/grep", workloads.BuildGrep},
			{"/bin/sort", workloads.BuildSort},
			{"/bin/wc", workloads.BuildWc},
		}
		p := newPipeline(stages, shellJobs, shellInputSize, false, func(b []byte) {
			for i := range b {
				b[i] = byte(rng.Uint32())
			}
		})
		// wc's output is only a byte count, so the sorted stream is
		// checked too: od | grep | sort over every input.
		p.addChecks(3, checkSorted)
		return p, nil
	case "build-pipeline":
		var stages []program
		for _, s := range []workloads.GCCStage{
			{Path: "/bin/cpp", Work: 2, Pad: 256 << 10},
			{Path: "/bin/cc1", Work: 12, Pad: 4 << 20},
			{Path: "/bin/as", Work: 3, Pad: 512 << 10},
			{Path: "/bin/ld", Work: 2, Pad: 1 << 20},
		} {
			stages = append(stages, program{s.Path, func() (*asm.Program, error) {
				return workloads.BuildCompilerStage(s.Work, s.Pad)
			}})
		}
		const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_ (){};=+*,\n\t"
		return newPipeline(stages, buildJobs, buildInputSize, true, func(b []byte) {
			for i := range b {
				b[i] = alphabet[rng.IntN(len(alphabet))]
			}
		}), nil
	case "http-keepalive":
		w := &httpKeepalive{}
		for i := 0; i < httpRequests; i++ {
			path := make([]byte, 8+rng.IntN(57))
			for j := range path {
				path[j] = byte('a' + rng.IntN(26))
			}
			w.reqs = append(w.reqs, []byte("GET /"+string(path)+" HTTP/1.0\r\n\r\n"))
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// --- pipelines -----------------------------------------------------------------

// pipeline is a shell-style job: a driver SIP that spawns the stage SIPs
// connected by pipes, over one of the seeded inputs.
type pipeline struct {
	stages []program
	// jobs are the timed jobs, one per input, then any check-only jobs.
	jobs  []pipeJob
	timed int
	// valid checks a check-only job's reference output.
	valid func([]byte) error
	// toFile writes the final stage's stdout into an encrypted-FS file
	// (read back and checked) instead of a memory node.
	toFile bool
	sys    *core.System
}

type pipeJob struct {
	driver, input string
	stages        []string
	data, want    []byte
}

func newPipeline(stages []program, n, size int, toFile bool, fill func([]byte)) *pipeline {
	p := &pipeline{stages: stages, toFile: toFile, timed: n}
	for i := 0; i < n; i++ {
		data := make([]byte, size)
		fill(data)
		p.jobs = append(p.jobs, pipeJob{
			driver: fmt.Sprintf("/bin/job%d", i),
			input:  fmt.Sprintf("/data/in%d", i),
			stages: p.stagePaths(),
			data:   data,
		})
	}
	return p
}

// addChecks adds a check-only job per input that runs only the first k
// stages, so that their output stream is compared too; valid checks
// the reference output of each.
func (p *pipeline) addChecks(k int, valid func([]byte) error) {
	p.valid = valid
	for i, j := range p.jobs[:p.timed] {
		p.jobs = append(p.jobs, pipeJob{
			driver: fmt.Sprintf("/bin/check%d", i),
			input:  j.input,
			stages: j.stages[:k],
			data:   j.data,
		})
	}
}

// checkSorted checks that a sort stage's output is non-empty, holds at
// least two distinct byte values and is in byte order, so that an
// unsorted stream with the same bytes cannot match it.
func checkSorted(b []byte) error {
	if len(b) == 0 || b[0] == b[len(b)-1] {
		return fmt.Errorf("sorted stream of %d bytes has fewer than two byte values", len(b))
	}
	for i := 1; i < len(b); i++ {
		if b[i] < b[i-1] {
			return fmt.Errorf("sorted stream is out of order at byte %d", i)
		}
	}
	return nil
}

func (p *pipeline) stagePaths() []string {
	var out []string
	for _, s := range p.stages {
		out = append(out, s.path)
	}
	return out
}

func (p *pipeline) programs() []program {
	return append(append([]program(nil), p.stages...), drivers(p.jobs[:p.timed])...)
}

func (p *pipeline) checkPrograms() []program { return drivers(p.jobs[p.timed:]) }

func drivers(jobs []pipeJob) []program {
	var out []program
	for _, j := range jobs {
		out = append(out, program{j.driver, func() (*asm.Program, error) {
			return workloads.BuildPipelineDriver(j.input, j.stages)
		}})
	}
	return out
}

func (p *pipeline) files() []file {
	var out []file
	for _, j := range p.jobs[:p.timed] {
		out = append(out, file{j.input, j.data})
	}
	return out
}

func (p *pipeline) inputs() int    { return p.timed }
func (p *pipeline) checkJobs() int { return len(p.jobs) - p.timed }

func (p *pipeline) reference() ([][]byte, error) {
	lk := workloads.NewLinuxKernel(workloads.KernelSpec{})
	for _, pr := range append(p.programs(), p.checkPrograms()...) {
		prog, err := pr.build()
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", pr.path, err)
		}
		if err := lk.InstallProgram(pr.path, prog); err != nil {
			return nil, fmt.Errorf("install %s: %w", pr.path, err)
		}
	}
	for _, f := range p.files() {
		if err := lk.WriteInput(f.path, f.data); err != nil {
			return nil, err
		}
	}
	var want [][]byte
	for i, j := range p.jobs {
		var out bytes.Buffer
		st, err := workloads.RunToCompletion(lk, j.driver, nil, &out)
		if err != nil || st != 0 {
			return nil, fmt.Errorf("%s: status %d, %v", j.driver, st, err)
		}
		if i >= p.timed {
			if err := p.valid(out.Bytes()); err != nil {
				return nil, fmt.Errorf("%s: %w", j.driver, err)
			}
		}
		want = append(want, out.Bytes())
	}
	return want, nil
}

func (p *pipeline) expect(want [][]byte) error {
	if len(want) != len(p.jobs) {
		return fmt.Errorf("%d reference outputs for %d jobs", len(want), len(p.jobs))
	}
	for i := range p.jobs {
		p.jobs[i].want = want[i]
	}
	return nil
}

func (p *pipeline) start(sys *core.System, _ *opTrace) error {
	p.sys = sys
	if p.toFile {
		sys.MkdirAll("/out")
	}
	return nil
}

func (p *pipeline) stop() error { return nil }

func (p *pipeline) newClient(id int) (client, error) {
	return &pipeClient{w: p, out: fmt.Sprintf("/out/client%d", id)}, nil
}

func (p *pipeline) loaderSet() ([]string, bool) {
	return append([]string{p.jobs[0].driver}, p.stagePaths()...), true
}

type pipeClient struct {
	w             *pipeline
	out           string
	writes, bytes int64
}

func (c *pipeClient) op(i int, t *opTrace) error {
	j := &c.w.jobs[i]
	root := t.begin("op", -1)
	defer t.end(root)

	var sink fs.Node = &memNode{}
	if c.w.toFile {
		n, err := c.w.sys.OS.VFS().Open(c.out, fs.OWrOnly|fs.OCreate|fs.OTrunc)
		if err != nil {
			return fmt.Errorf("open %s: %w", c.out, err)
		}
		sink = n
	}
	tn := &timedNode{Node: sink, t: t}
	tn.parent.Store(int32(root))
	stdout := libos.OpenNodeFile(tn, fs.OWrOnly)

	s := t.begin("libos.spawn", root)
	proc, err := c.w.sys.OS.Spawn(j.driver, nil, libos.SpawnOpt{Stdout: stdout})
	t.end(s)
	if err != nil {
		stdout.Unref()
		return fmt.Errorf("spawn %s: %w", j.driver, err)
	}
	s = t.begin("libos.job_wait", root)
	tn.parent.Store(int32(s))
	status := proc.Wait()
	t.end(s)
	stdout.Unref() // the last reference: closes the sink
	c.writes += tn.writes
	c.bytes += tn.bytes
	if status != 0 {
		return fmt.Errorf("%s exited with status %d", j.driver, status)
	}

	var got []byte
	if m, ok := sink.(*memNode); ok {
		got = m.buf.Bytes()
	} else {
		s = t.begin("fs.readback", root)
		got, err = c.w.sys.ReadFile(c.out)
		t.end(s)
		if err != nil {
			return fmt.Errorf("read back %s: %w", c.out, err)
		}
	}
	s = t.begin("bench.check", root)
	same := bytes.Equal(got, j.want)
	t.end(s)
	if !same {
		return errMismatch
	}
	return nil
}

func (c *pipeClient) fsWrites() (int64, int64) { return c.writes, c.bytes }
func (c *pipeClient) close()                   {}

// memNode is an in-memory stdout sink.
type memNode struct{ buf bytes.Buffer }

func (n *memNode) ReadAt([]byte, int64) (int, error)      { return 0, fmt.Errorf("memNode: write-only") }
func (n *memNode) WriteAt(p []byte, _ int64) (int, error) { return n.buf.Write(p) }
func (n *memNode) Size() int64                            { return int64(n.buf.Len()) }
func (n *memNode) Close() error                           { return nil }

// timedNode wraps the fs.Node a job gets as stdout, counting its writes
// and recording an fs.write span around each. Only the final stage
// writes, one write at a time, and the client reads the counts after
// Proc.Wait, which orders them.
type timedNode struct {
	fs.Node
	t             *opTrace
	parent        atomic.Int32
	writes, bytes int64
}

func (n *timedNode) WriteAt(p []byte, off int64) (int, error) {
	s := n.t.begin("fs.write", int(n.parent.Load()))
	k, err := n.Node.WriteAt(p, off)
	n.t.end(s)
	n.writes++
	n.bytes += int64(k)
	return k, err
}

// --- http-keepalive ------------------------------------------------------------

// httpKeepalive drives the epoll HTTPD (one worker SIP) over persistent
// connections, one request in flight per connection.
type httpKeepalive struct {
	reqs   [][]byte
	want   [][]byte // the expected response to each request
	sys    *core.System
	master *libos.Proc
	// lt holds the server's lifecycle spans: root, then Spawn, then
	// Spawn return to reap.
	lt         *opTrace
	root, wait int
}

const (
	httpMaster = "/bin/ehttpd"
	httpWorker = "/bin/ehttpd-worker"
)

func (h *httpKeepalive) programs() []program {
	return []program{
		{httpWorker, func() (*asm.Program, error) { return workloads.BuildEventHTTPWorker(httpPort) }},
		{httpMaster, func() (*asm.Program, error) {
			return workloads.BuildEventHTTPMaster(httpPort, httpWorker, 1)
		}},
	}
}

func (h *httpKeepalive) files() []file            { return nil }
func (h *httpKeepalive) inputs() int              { return len(h.reqs) }
func (h *httpKeepalive) checkJobs() int           { return 0 }
func (h *httpKeepalive) checkPrograms() []program { return nil }

// reference serves every seeded request from the classic HTTPD on the
// linuxsim baseline. The epoll server cannot run there (linuxsim has no
// epoll); both servers send the same header and page.
func (h *httpKeepalive) reference() ([][]byte, error) {
	lk := workloads.NewLinuxKernel(workloads.KernelSpec{})
	master, err := workloads.InstallHTTPD(lk, httpPort, 1)
	if err != nil {
		return nil, err
	}
	p, err := lk.Spawn(master, nil, nil)
	if err != nil {
		return nil, err
	}
	var want [][]byte
	for _, req := range h.reqs {
		conn, err := dial(lk.Host())
		if err != nil {
			return nil, err
		}
		_, err = conn.Write(req)
		var resp []byte
		buf := make([]byte, 4096)
		for err == nil {
			var n int
			n, err = conn.Read(buf)
			resp = append(resp, buf[:n]...)
		}
		conn.Close()
		if len(resp) != workloads.ResponseSize {
			return nil, fmt.Errorf("response is %d bytes, want %d", len(resp), workloads.ResponseSize)
		}
		want = append(want, resp)
	}
	workloads.StopHTTPD(lk, httpPort, 1)
	if st := p.Wait(); st != 0 {
		return nil, fmt.Errorf("server exited with status %d", st)
	}
	return want, nil
}

func (h *httpKeepalive) expect(want [][]byte) error {
	if len(want) != len(h.reqs) {
		return fmt.Errorf("%d reference responses for %d requests", len(want), len(h.reqs))
	}
	h.want = want
	return nil
}

func (h *httpKeepalive) start(sys *core.System, lt *opTrace) error {
	h.sys, h.lt = sys, lt
	h.root = lt.begin("server", -1)
	s := lt.begin("libos.spawn", h.root)
	p, err := sys.OS.Spawn(httpMaster, nil, libos.SpawnOpt{})
	lt.end(s)
	if err != nil {
		return fmt.Errorf("spawn %s: %w", httpMaster, err)
	}
	h.master = p
	h.wait = lt.begin("libos.job_wait", h.root)
	return nil
}

func (h *httpKeepalive) stop() error {
	workloads.StopHTTPD(&workloads.OcclumKernel{Sys: h.sys}, httpPort, 1)
	st := h.master.Wait()
	h.lt.end(h.wait)
	h.lt.end(h.root)
	if st != 0 {
		return fmt.Errorf("%s exited with status %d", httpMaster, st)
	}
	return nil
}

func (h *httpKeepalive) newClient(int) (client, error) {
	conn, err := dial(h.sys.Host)
	if err != nil {
		return nil, err
	}
	return &httpClient{w: h, conn: conn}, nil
}

func (h *httpKeepalive) loaderSet() ([]string, bool) {
	return []string{httpMaster, httpWorker}, false
}

type httpClient struct {
	w    *httpKeepalive
	conn *hostos.Conn
	resp []byte
}

func (c *httpClient) op(i int, t *opTrace) error {
	root := t.begin("op", -1)
	defer t.end(root)
	if c.conn == nil {
		conn, err := dial(c.w.sys.Host)
		if err != nil {
			return err
		}
		c.conn = conn
	}
	want := c.w.want[i]
	if len(c.resp) != len(want) {
		c.resp = make([]byte, len(want))
	}
	s := t.begin("hostos.send", root)
	_, err := c.conn.Write(c.w.reqs[i])
	t.end(s)
	if err != nil {
		c.close()
		return fmt.Errorf("send: %w", err)
	}
	s = t.begin("hostos.first_byte", root)
	n, err := c.conn.Read(c.resp)
	t.end(s)
	s = t.begin("hostos.recv", root)
	for err == nil && n < len(c.resp) {
		var k int
		k, err = c.conn.Read(c.resp[n:])
		n += k
	}
	t.end(s)
	if n < len(c.resp) {
		c.close()
		return fmt.Errorf("response cut at %d of %d bytes: %v", n, len(c.resp), err)
	}
	s = t.begin("bench.check", root)
	same := bytes.Equal(c.resp, want)
	t.end(s)
	if !same {
		return errMismatch
	}
	return nil
}

func (c *httpClient) fsWrites() (int64, int64) { return 0, 0 }

func (c *httpClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// dial connects to the benchmark port, retrying while the server starts.
func dial(h *hostos.Host) (*hostos.Conn, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := h.Dial(httpPort)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %d: %w", httpPort, err)
		}
		time.Sleep(time.Millisecond)
	}
}
