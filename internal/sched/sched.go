// Package sched implements the M:N scheduler that multiplexes many SIPs
// over a bounded pool of harts.
//
// The paper's threading model gives each SIP one SGX thread (TCS) for its
// whole lifetime, which caps concurrency at the TCS budget and lets any
// blocked SIP hold a hardware thread hostage. This package decouples the
// two: a Scheduler runs a fixed pool of harts (one goroutine per
// configured TCS) over per-hart FIFO run queues with work stealing, and
// SIPs become resumable Tasks that are stepped one scheduling quantum at
// a time. A blocking operation does not block the hart — the task
// registers a waiter with the resource it needs, returns Park, and the
// hart moves on to the next runnable task; the resource's wakeup calls
// Unpark, which requeues the task.
//
// # Park/unpark protocol
//
// The lost-wakeup race (a wake arriving between the moment a task decides
// to park and the moment the hart commits the park) is closed with a
// latched wake flag, exactly like gopark/goready in the Go runtime:
//
//  1. The task, holding the resource's lock, registers a waiter callback
//     and returns Park. The callback's only job is to call G.Unpark.
//  2. The hart commits the park: it publishes state Parked, then checks
//     the wake latch. If a wake already landed, it atomically takes the
//     task back (Parked→Queued) and keeps running it.
//  3. Unpark sets the latch first, then tries the same Parked→Queued
//     transition. Exactly one side wins the CAS, so the task is requeued
//     exactly once.
//
// Because every parked operation is retried from scratch when the task
// next runs (and re-parks if still not ready), spurious wakeups are
// harmless; the protocol only has to guarantee at-least-once delivery of
// the *last* wake.
package sched

import (
	"sync"
	"sync/atomic"
	"time"
)

// Status is what a Task's Step reports back to its hart.
type Status uint8

const (
	// Yield: the quantum ended (cycle slice exhausted or preempted);
	// requeue the task.
	Yield Status = iota
	// Park: the task registered a waiter with a blocked resource;
	// hold it off the run queues until Unpark.
	Park
	// Done: the task finished; drop it.
	Done
)

// Task is a resumable coroutine the scheduler can run: each Step call
// executes one scheduling quantum and reports how it ended. Step is never
// called concurrently for one task.
type Task interface {
	Step() Status
}

// Preempter is implemented by tasks that can be asked to yield early —
// the scheduler requests preemption of running tasks when runnable work
// queues up and no hart is idle.
type Preempter interface {
	RequestPreempt()
}

// G states. A task is in exactly one of them; transitions are documented
// at each site.
const (
	gQueued  int32 = iota // on some hart's run queue
	gRunning              // being stepped by a hart
	gParked               // off the queues, waiting for Unpark
	gDone                 // finished
)

// G is the scheduler's handle for one task (the goroutine-analog).
type G struct {
	s    *Scheduler
	task Task

	state atomic.Int32
	// wake latches an Unpark that raced with parking; see the package
	// comment for the protocol.
	wake atomic.Bool
	// affinity is the hart the task last ran on; Unpark requeues there
	// for locality, and stealing rebalances when it is a bad guess.
	affinity atomic.Int32
}

// Unpark makes a parked task runnable again. It is safe to call from any
// goroutine, any number of times, in any task state: wakes to a running
// or queued task are latched and absorbed by the next park attempt, and
// wakes to a finished task are ignored.
func (g *G) Unpark() {
	g.wake.Store(true)
	if g.state.CompareAndSwap(gParked, gQueued) {
		g.wake.Store(false)
		g.s.stats.Unparks.Add(1)
		g.s.enqueue(g)
	}
}

// Done reports whether the task has finished.
func (g *G) Done() bool { return g.state.Load() == gDone }

// Stats counts scheduler events. All fields are cumulative and safe for
// concurrent use; BusyNS accumulates hart time spent inside Task.Step.
type Stats struct {
	Tasks       atomic.Uint64 // tasks ever submitted
	Slices      atomic.Uint64 // Step calls
	Yields      atomic.Uint64 // quanta ending in Yield
	Parks       atomic.Uint64 // committed parks
	Unparks     atomic.Uint64 // parked tasks made runnable
	Steals      atomic.Uint64 // tasks taken from another hart's queue
	PreemptReqs atomic.Uint64 // preemption requests issued by enqueue
	Preempts    atomic.Uint64 // preemptions delivered (bumped by the task layer)
	BusyNS      atomic.Int64  // total hart time inside Step
}

// Snapshot is a plain-value copy of Stats plus derived figures.
type Snapshot struct {
	Tasks, Slices, Yields, Parks, Unparks, Steals uint64
	PreemptReqs, Preempts                         uint64
	BusyNS, CapacityNS                            int64
}

// Utilization returns the fraction of hart-time spent running tasks.
func (s Snapshot) Utilization() float64 {
	if s.CapacityNS <= 0 {
		return 0
	}
	u := float64(s.BusyNS) / float64(s.CapacityNS)
	if u > 1 {
		u = 1
	}
	return u
}

// Sub returns the event delta s - o (capacity and busy time included).
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Tasks: s.Tasks - o.Tasks, Slices: s.Slices - o.Slices,
		Yields: s.Yields - o.Yields, Parks: s.Parks - o.Parks,
		Unparks: s.Unparks - o.Unparks, Steals: s.Steals - o.Steals,
		PreemptReqs: s.PreemptReqs - o.PreemptReqs, Preempts: s.Preempts - o.Preempts,
		BusyNS: s.BusyNS - o.BusyNS, CapacityNS: s.CapacityNS - o.CapacityNS,
	}
}

// hart is one worker of the pool: a goroutine with a lock-protected FIFO
// run queue. The owner pops from the front; thieves steal from the back.
type hart struct {
	s  *Scheduler
	id int32

	mu   sync.Mutex
	q    []*G
	qlen atomic.Int32 // len(q), readable without mu

	// running is the task currently inside Step, exposed so enqueue can
	// request its preemption when work piles up.
	running atomic.Pointer[G]

	rng uint64 // xorshift state for steal-victim selection
}

// Scheduler runs tasks over a fixed pool of harts.
type Scheduler struct {
	harts []*hart

	// idleMu serializes the sleep/wake handshake: a hart only sleeps
	// after re-scanning every queue under idleMu, and enqueue signals
	// under the same lock, so a push is either seen by the re-scan or
	// its signal lands after the Wait.
	idleMu   sync.Mutex
	idleCond *sync.Cond
	idle     int
	stopped  bool
	// idlePending is a latched Kick: background work appeared while the
	// pool was asleep, so the next hart through sleep should re-scan and
	// give the idle hook a turn instead of blocking.
	idlePending bool

	// idleFn is the background-work hook (see SetIdle); idleActive makes
	// it single-flight so concurrent idle harts don't pile onto it.
	idleFn     atomic.Pointer[func() bool]
	idleActive atomic.Bool

	nextHart atomic.Uint32
	stopping atomic.Bool
	wg       sync.WaitGroup
	stats    Stats

	start    time.Time
	stopTime atomic.Int64 // unixnano at Stop, 0 while running
}

// New creates and starts a scheduler with n harts (n < 1 is clamped
// to 1).
func New(n int) *Scheduler {
	if n < 1 {
		n = 1
	}
	s := &Scheduler{start: time.Now()}
	s.idleCond = sync.NewCond(&s.idleMu)
	for i := 0; i < n; i++ {
		h := &hart{s: s, id: int32(i), rng: uint64(i)*0x9E3779B97F4A7C15 + 1}
		s.harts = append(s.harts, h)
	}
	for _, h := range s.harts {
		s.wg.Add(1)
		go h.loop()
	}
	register(s)
	return s
}

// NumHarts returns the pool size.
func (s *Scheduler) NumHarts() int { return len(s.harts) }

// Runnable returns the number of tasks currently sitting on run queues
// (excluding the ones inside Step right now). It reads the per-hart
// qlen atomics without locking, so the answer is a point-in-time
// estimate — exactly what admission control wants: the accept path
// sheds load when this climbs past a threshold, and a slightly stale
// reading only shifts the shed boundary by a connection or two.
func (s *Scheduler) Runnable() int {
	n := 0
	for _, h := range s.harts {
		n += int(h.qlen.Load())
	}
	return n
}

// Stats returns the live counters (for the task layer to bump Preempts
// and for stats consumers).
func (s *Scheduler) Stats() *Stats { return &s.stats }

// Go submits a task and returns its handle. The task starts in state
// Queued on a round-robin hart.
func (s *Scheduler) Go(t Task) *G {
	g := s.Prepare(t)
	s.Start(g)
	return g
}

// Prepare creates a handle without scheduling the task — so the task can
// stash its own handle (for self-unparks) before it can possibly run.
// Follow with Start.
func (s *Scheduler) Prepare(t Task) *G {
	g := &G{s: s, task: t}
	g.affinity.Store(int32(s.nextHart.Add(1) % uint32(len(s.harts))))
	return g
}

// Start schedules a Prepared task.
func (s *Scheduler) Start(g *G) {
	s.stats.Tasks.Add(1)
	s.enqueue(g)
}

// Stop shuts the hart pool down. Tasks still queued or parked are
// abandoned; callers must only Stop once all tasks have finished (the
// LibOS contract: Shutdown happens after processes exit).
func (s *Scheduler) Stop() {
	s.stopping.Store(true)
	s.idleMu.Lock()
	if s.stopped {
		s.idleMu.Unlock()
		return
	}
	s.stopped = true
	s.idleCond.Broadcast()
	s.idleMu.Unlock()
	s.wg.Wait()
	s.stopTime.Store(time.Now().UnixNano())
	unregister(s)
}

// Snapshot returns a consistent-enough copy of the counters plus the
// hart-time capacity accumulated so far.
func (s *Scheduler) Snapshot() Snapshot {
	end := time.Now().UnixNano()
	if t := s.stopTime.Load(); t != 0 {
		end = t
	}
	cap := (end - s.start.UnixNano()) * int64(len(s.harts))
	return Snapshot{
		Tasks: s.stats.Tasks.Load(), Slices: s.stats.Slices.Load(),
		Yields: s.stats.Yields.Load(), Parks: s.stats.Parks.Load(),
		Unparks: s.stats.Unparks.Load(), Steals: s.stats.Steals.Load(),
		PreemptReqs: s.stats.PreemptReqs.Load(), Preempts: s.stats.Preempts.Load(),
		BusyNS: s.stats.BusyNS.Load(), CapacityNS: cap,
	}
}

// SetIdle registers fn as the scheduler's idle-time background hook. A
// hart that finds no runnable work (its own queue and every steal victim
// empty) calls fn before committing to sleep; fn returns true when it did
// some work — the hart then re-scans the run queues instead of sleeping,
// so background work never delays a freshly enqueued task by more than
// one fn call. Calls are single-flight across harts: at most one hart is
// ever inside fn, the rest sleep as usual. When fn returns false the
// calling hart sleeps too, so a hook that latches "nothing left to do"
// (like the BlockStore scrubber's clean-pass latch) lets the pool
// quiesce completely. Passing nil removes the hook.
func (s *Scheduler) SetIdle(fn func() bool) {
	if fn == nil {
		s.idleFn.Store(nil)
		return
	}
	s.idleFn.Store(&fn)
}

// Kick wakes one sleeping hart so the idle hook gets a turn. Harts give
// the hook a shot on their own whenever they run out of tasks, but a
// fully quiesced pool only wakes for enqueued work — a mutation made
// off-hart (a host-thread VFS write, an explicit Sync) would otherwise
// never rouse the scrubber. The kick is latched, so it is not lost when
// every hart is busy: the next hart to go idle consumes it.
func (s *Scheduler) Kick() {
	s.idleMu.Lock()
	s.idlePending = true
	s.idleCond.Signal()
	s.idleMu.Unlock()
}

// runIdle gives the registered idle hook one shot (single-flight) and
// reports whether it did work.
func (h *hart) runIdle() bool {
	fnp := h.s.idleFn.Load()
	if fnp == nil {
		return false
	}
	if !h.s.idleActive.CompareAndSwap(false, true) {
		return false
	}
	worked := (*fnp)()
	h.s.idleActive.Store(false)
	return worked
}

// enqueue places g (state must already be Queued) on its affinity hart
// and wakes an idle hart — or, when none is idle, asks the busy hart's
// current task to yield early so queued work is not stuck behind a
// CPU-bound quantum.
func (s *Scheduler) enqueue(g *G) {
	h := s.harts[int(g.affinity.Load())%len(s.harts)]
	h.mu.Lock()
	h.q = append(h.q, g)
	h.qlen.Store(int32(len(h.q)))
	h.mu.Unlock()

	s.idleMu.Lock()
	idle := s.idle
	if idle > 0 {
		s.idleCond.Signal()
	}
	s.idleMu.Unlock()

	if idle == 0 {
		if cur := h.running.Load(); cur != nil {
			if p, ok := cur.task.(Preempter); ok {
				s.stats.PreemptReqs.Add(1)
				p.RequestPreempt()
			}
		}
	}
}

func (h *hart) loop() {
	defer h.s.wg.Done()
	for {
		if h.s.stopping.Load() {
			return
		}
		g := h.pop()
		if g == nil {
			g = h.steal()
		}
		if g == nil {
			if h.runIdle() {
				continue // idle work done something; re-scan for real work
			}
			if !h.sleep() {
				return
			}
			continue // re-scan after wakeup
		}
		h.run(g)
	}
}

// pop takes the oldest task off the hart's own queue.
func (h *hart) pop() *G {
	if h.qlen.Load() == 0 {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.q) == 0 {
		return nil
	}
	g := h.q[0]
	h.q = h.q[1:]
	h.qlen.Store(int32(len(h.q)))
	return g
}

// steal takes up to half of a random victim's queue (from the back, the
// coldest work), keeps one task to run and queues the rest locally.
func (h *hart) steal() *G {
	n := len(h.s.harts)
	if n == 1 {
		return nil
	}
	// xorshift64 victim order, different per hart.
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	start := int(h.rng % uint64(n))
	for i := 0; i < n; i++ {
		v := h.s.harts[(start+i)%n]
		if v == h || v.qlen.Load() == 0 {
			continue
		}
		v.mu.Lock()
		k := len(v.q)
		take := (k + 1) / 2
		if take == 0 {
			v.mu.Unlock()
			continue
		}
		stolen := append([]*G(nil), v.q[k-take:]...)
		v.q = v.q[:k-take]
		v.qlen.Store(int32(len(v.q)))
		v.mu.Unlock()

		h.s.stats.Steals.Add(uint64(take))
		for _, g := range stolen {
			g.affinity.Store(h.id)
		}
		if len(stolen) > 1 {
			h.mu.Lock()
			h.q = append(h.q, stolen[1:]...)
			h.qlen.Store(int32(len(h.q)))
			h.mu.Unlock()
		}
		return stolen[0]
	}
	return nil
}

// sleep blocks until work may be available. It returns false when the
// scheduler stopped. See idleMu for why the re-scan under the lock makes
// the handshake lossless.
func (h *hart) sleep() bool {
	s := h.s
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	for {
		if s.stopped {
			return false
		}
		if s.anyQueued() {
			return true
		}
		if s.idlePending {
			s.idlePending = false
			return true // re-scan; loop() will offer the idle hook a turn
		}
		s.idle++
		s.idleCond.Wait()
		s.idle--
	}
}

func (s *Scheduler) anyQueued() bool {
	for _, h := range s.harts {
		if h.qlen.Load() > 0 {
			return true
		}
	}
	return false
}

// run steps g until it yields, parks for real, or finishes. A park whose
// wake already landed is absorbed here and the task keeps running —
// the futex-wake-before-park fast path.
func (h *hart) run(g *G) {
	s := h.s
	for {
		g.state.Store(gRunning)
		g.affinity.Store(h.id)
		h.running.Store(g)
		t0 := time.Now()
		st := g.task.Step()
		s.stats.BusyNS.Add(int64(time.Since(t0)))
		s.stats.Slices.Add(1)
		h.running.Store(nil)

		switch st {
		case Done:
			g.state.Store(gDone)
			return
		case Yield:
			s.stats.Yields.Add(1)
			g.state.Store(gQueued)
			h.push(g)
			return
		case Park:
			// Commit the park, then re-check the latch: an Unpark that
			// fired while the task was deciding to park must not be
			// lost. Exactly one of this CAS and Unpark's CAS wins.
			g.state.Store(gParked)
			if g.wake.Load() && g.state.CompareAndSwap(gParked, gQueued) {
				g.wake.Store(false)
				continue // wake raced the park: keep running
			}
			s.stats.Parks.Add(1)
			return
		}
	}
}

// push appends to the hart's own queue (used for yields, keeping the
// task local).
func (h *hart) push(g *G) {
	h.mu.Lock()
	h.q = append(h.q, g)
	h.qlen.Store(int32(len(h.q)))
	h.mu.Unlock()
}

// --- Global aggregation (for occlum-bench -stats) -------------------

// Live schedulers are enumerated for GlobalSnapshot; a stopped
// scheduler folds its final snapshot into the retired accumulator and
// leaves the registry, so long-lived processes that boot many kernels
// (the bench binary, the test suite) retain no dead Scheduler objects.
var (
	regMu    sync.Mutex
	registry []*Scheduler
	retired  Snapshot
)

func register(s *Scheduler) {
	regMu.Lock()
	registry = append(registry, s)
	regMu.Unlock()
}

func unregister(s *Scheduler) {
	final := s.Snapshot() // capacity frozen: stopTime is set
	regMu.Lock()
	defer regMu.Unlock()
	for i, r := range registry {
		if r == s {
			registry = append(registry[:i], registry[i+1:]...)
			break
		}
	}
	retired.accumulate(final)
}

func (t *Snapshot) accumulate(s Snapshot) {
	t.Tasks += s.Tasks
	t.Slices += s.Slices
	t.Yields += s.Yields
	t.Parks += s.Parks
	t.Unparks += s.Unparks
	t.Steals += s.Steals
	t.PreemptReqs += s.PreemptReqs
	t.Preempts += s.Preempts
	t.BusyNS += s.BusyNS
	t.CapacityNS += s.CapacityNS
}

// GlobalSnapshot sums the snapshots of every scheduler created by this
// process, live or stopped — the sched analog of vm.GlobalCacheStats,
// so benchmark drivers can report totals without owning the kernels.
func GlobalSnapshot() Snapshot {
	regMu.Lock()
	defer regMu.Unlock()
	total := retired
	for _, s := range registry {
		total.accumulate(s.Snapshot())
	}
	return total
}
