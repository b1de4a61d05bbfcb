package bench

import (
	"fmt"
	"io"

	"repro/internal/fs"
	"repro/internal/libos"
	"repro/internal/sched"
	"repro/internal/vm"
)

// Experiment names accepted by Run.
var Experiments = []string{
	"fig5a", "fig5b", "fig5c",
	"fig6a", "fig6b", "fig6c", "fig6d",
	"fig7a", "fig7b",
	"ripe", "table1", "c10k", "fsbench", "recovery", "ipcbench",
}

// Stats, when true, makes Run report the counters of four layers per
// experiment, each accumulated across every instance of the layer
// during the experiment (enabled by occlum-bench -stats):
//
//   - vm: the OVM translation-cache counters of every simulated hart —
//     blocks decoded, hits, misses, flushes, chained transitions,
//     threaded-dispatch instructions, superblocks formed, trace
//     hits/exits and instructions retired inside traces, RAS hits, and
//     indirect-jump inline-cache hits/misses. Trace hits are counted
//     apart from block hits, so the split between the two dispatch
//     tiers is visible.
//   - sched: the M:N scheduler counters of every Occlum hart pool —
//     parks, unparks, steals, preemptions, yields, hart utilization.
//     The baselines run no scheduler, so they contribute zeros.
//   - net: the readiness-path counters of every LibOS instance —
//     recv/send/accept parks, poll and epoll_wait calls and parks,
//     EAGAIN returns, the zero-copy ledgers — plus the timer-wheel and
//     backpressure counters (wheel arms/fires/cancels/cascades,
//     idle-reaped and shed connections, suppressed stale timer wakes).
//   - fs: the counters of every mounted filesystem — image blocks
//     Merkle-verified, verified-cache hits, read-aheads, copy-ups,
//     whiteouts, and the self-healing store's scrubbed blocks and
//     repaired/rebuilt shards.
//
// It also totals the loader counters of every Occlum instance the
// experiment boots: spawns served from the verified-binary cache (hits)
// and spawns that read, parsed and signature-checked their binary
// (misses).
var Stats bool

// Run executes one named experiment at the given scale, printing its
// table to w.
func Run(name string, s Scale, w io.Writer) error {
	if Stats {
		vm.ResetGlobalCacheStats()
		s.booted = new([]*libos.Occlum)
	}
	before := sched.GlobalSnapshot()
	netBefore := libos.NetStats()
	fsBefore := fs.Stats()
	err := run(name, s, w)
	if err == nil && Stats {
		fmt.Fprintf(w, "  [vm cache: %v]\n", vm.GlobalCacheStats())
		d := sched.GlobalSnapshot().Sub(before)
		fmt.Fprintf(w, "  [sched: tasks=%d slices=%d parks=%d unparks=%d steals=%d preempts=%d (%d requested) yields=%d hart-util=%.1f%%]\n",
			d.Tasks, d.Slices, d.Parks, d.Unparks, d.Steals, d.Preempts, d.PreemptReqs, d.Yields, 100*d.Utilization())
		n := libos.NetStats().Sub(netBefore)
		fmt.Fprintf(w, "  [net: recv-parks=%d send-parks=%d accept-parks=%d polls=%d (%d parked) epwaits=%d (%d parked) eagains=%d writevs=%d readvs=%d sendfiles=%d splices=%d lent=%d copied=%d]\n",
			n.RecvParks, n.SendParks, n.AcceptParks, n.Polls, n.PollParks, n.EpWaits, n.EpWaitParks, n.EAgains,
			n.Writevs, n.Readvs, n.Sendfiles, n.Splices, n.BytesLent, n.BytesCopied)
		fmt.Fprintf(w, "  [net/timers: wheel-arms=%d fires=%d cancels=%d cascades=%d reaps=%d sheds=%d stale-wakes=%d]\n",
			n.WheelArms, n.WheelFires, n.WheelCancels, n.WheelCascades, n.Reaps, n.Sheds, n.StaleWakes)
		f := fs.Stats().Sub(fsBefore)
		fmt.Fprintf(w, "  [fs: verified=%d verify-hits=%d read-aheads=%d copy-ups=%d whiteouts=%d scrubbed=%d repaired=%d rebuilt=%d]\n",
			f.VerifiedBlocks, f.VerifyHits, f.ReadAheads, f.CopyUps, f.Whiteouts,
			f.ScrubbedBlocks, f.RepairedShards, f.RebuiltShards)
		var l libos.LoaderStats
		for _, o := range *s.booted {
			ls := o.LoaderStats()
			l.Hits += ls.Hits
			l.Misses += ls.Misses
		}
		fmt.Fprintf(w, "  [loader: hits=%d misses=%d]\n", l.Hits, l.Misses)
	}
	return err
}

func run(name string, s Scale, w io.Writer) error {
	var (
		t   *Table
		err error
	)
	switch name {
	case "fig5a":
		t, err = Fig5aFish(s)
	case "fig5b":
		t, err = Fig5bGCC(s)
	case "fig5c":
		t, err = Fig5cLighttpd(s)
	case "fig6a":
		t, err = Fig6aSpawn(s)
	case "fig6b":
		t, err = Fig6bPipe(s)
	case "fig6c":
		t, err = Fig6cdFileIO(s, false)
	case "fig6d":
		t, err = Fig6cdFileIO(s, true)
	case "fig7a":
		t, err = Fig7aSpecint(s)
	case "fig7b":
		t, err = Fig7bBreakdown(s)
	case "ripe":
		t, err = RIPETable()
	case "c10k":
		t, err = C10KTable(s)
	case "fsbench":
		t, err = FSBench(s)
	case "recovery":
		t, err = Recovery(s)
	case "ipcbench":
		t, err = IPCBench(s)
	case "table1":
		return Table1(s, w)
	default:
		return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments)
	}
	if err != nil {
		return fmt.Errorf("bench: %s: %w", name, err)
	}
	t.Print(w)
	return nil
}

// RunAll executes every experiment.
func RunAll(s Scale, w io.Writer) error {
	for _, name := range Experiments {
		if err := Run(name, s, w); err != nil {
			return err
		}
	}
	return nil
}
