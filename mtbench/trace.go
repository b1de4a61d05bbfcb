package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one op share op; parent
// is the index of the enclosing span within the op (-1 for the op root).
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the raw spans a run keeps for the spans file; self
// times and durations are aggregated over every op regardless.
const maxKeptSpans = 200000

// Span times count from epoch, and op ids are unique across every tracer
// of a run, so the spans of all tracers merge into one file.
var (
	epoch  = time.Now()
	nextOp atomic.Int64
)

// tracer collects spans. Raw spans stay in memory until the run ends;
// per-name durations and self times are folded in as each op finishes.
type tracer struct {
	mu   sync.Mutex
	kept []span
	dur  map[string][]time.Duration
	self map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{dur: map[string][]time.Duration{}, self: map[string]time.Duration{}}
}

// opTrace records the spans of one op. A nil *opTrace records nothing,
// so untraced phases run the same code with tracing off.
type opTrace struct {
	tr    *tracer
	op    int64
	mu    sync.Mutex
	spans []span
}

func (t *tracer) newOp() *opTrace {
	if t == nil {
		return nil
	}
	return &opTrace{tr: t, op: nextOp.Add(1)}
}

// begin opens a span under parent and returns its id.
func (o *opTrace) begin(name string, parent int) int {
	if o == nil {
		return -1
	}
	now := int64(time.Since(epoch))
	o.mu.Lock()
	defer o.mu.Unlock()
	id := len(o.spans)
	o.spans = append(o.spans, span{Op: o.op, ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id.
func (o *opTrace) end(id int) {
	if o == nil || id < 0 {
		return
	}
	now := int64(time.Since(epoch))
	o.mu.Lock()
	o.spans[id].End = now
	o.mu.Unlock()
}

// finish folds a completed op into the tracer's aggregates.
func (t *tracer) finish(o *opTrace) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	self := selfTimes(o.spans)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range o.spans {
		t.dur[s.Name] = append(t.dur[s.Name], time.Duration(s.End-s.Start))
		t.self[s.Name] += self[i]
	}
	if len(t.kept)+len(o.spans) <= maxKeptSpans {
		t.kept = append(t.kept, o.spans...)
	}
}

// dur is the duration of a closed span.
func (o *opTrace) dur(id int) time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return time.Duration(o.spans[id].End - o.spans[id].Start)
}

// sums totals span durations by name.
func (o *opTrace) sums() map[string]time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := map[string]time.Duration{}
	for _, s := range o.spans {
		out[s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// meanMS is the mean duration of the spans called name, in ms.
func (t *tracer) meanMS(name string) float64 {
	return ms(t.total(name)) / float64(max(len(t.dur[name]), 1))
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, x := range t.dur[name] {
		sum += x
	}
	return sum
}

// writeSpans stores the kept spans of every tracer as JSON lines.
func writeSpans(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for _, s := range t.kept {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans %s: %w", path, err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
