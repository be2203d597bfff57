package main

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// trace.go — spans around the calls the benchmark makes into each layer.
// Spans are recorded only in a traced run (-trace 1), buffered in memory,
// and written as Chrome trace_event JSON when the run ends. A nil *tracer
// and a nil *span are valid and record nothing, so the workloads carry no
// "if tracing" branches and an untraced run pays one nil check per call.

// span is one timed call into a layer. Parent links make the tree; opID
// ties the spans of one operation (a step, a cycle, a job) together.
type span struct {
	tr     *tracer
	layer  string // layer the call enters: solver, ckpt, mesh, jobd, fleet, ...
	name   string // call name: step, checkpoint, http.submit, ...
	opID   int    // per-operation id (step index, cycle index, job ordinal); -1 = none
	lane   int    // display track; concurrent clients use distinct lanes
	parent *span
	start  time.Time
	end    time.Time
}

// tracer buffers spans. Safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []*span
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (nil for a root) and returns it; the
// span is recorded when end is called. The lane is inherited from the
// parent unless the caller moves the span with onLane.
func (t *tracer) start(parent *span, layer, name string, opID int) *span {
	if t == nil {
		return nil
	}
	s := &span{tr: t, layer: layer, name: name, opID: opID, parent: parent, start: time.Now()}
	if parent != nil {
		s.lane = parent.lane
	}
	return s
}

// onLane puts the span on its own display track (one per concurrent
// client) and returns it.
func (s *span) onLane(lane int) *span {
	if s != nil {
		s.lane = lane
	}
	return s
}

// finish closes the span and records it.
func (s *span) finish() {
	if s == nil {
		return
	}
	s.end = time.Now()
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s)
	s.tr.mu.Unlock()
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// coveredLength returns the length of the union of the intervals clipped
// to [lo, hi): overlapping and nested children are counted once.
func coveredLength(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv.lo, iv.hi, true
		case iv.lo <= curHi:
			if iv.hi > curHi {
				curHi = iv.hi
			}
		default:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTimes returns every span's self time: its duration minus the part
// of that interval covered by its direct children (taken as a union, so
// concurrent children do not subtract twice).
func selfTimes(spans []*span) map[*span]time.Duration {
	children := map[*span][]interval{}
	for _, s := range spans {
		if s.parent != nil {
			children[s.parent] = append(children[s.parent],
				interval{s.start.UnixNano(), s.end.UnixNano()})
		}
	}
	out := make(map[*span]time.Duration, len(spans))
	for _, s := range spans {
		lo, hi := s.start.UnixNano(), s.end.UnixNano()
		out[s] = time.Duration(hi - lo - coveredLength(lo, hi, children[s]))
	}
	return out
}

// layerSelf sums self time and call counts per layer over the recorded
// spans under root (root itself excluded) — where the driver's wall time
// went, layer by layer.
func (t *tracer) layerSelf(root *span) (selfMs map[string]float64, calls map[string]int) {
	selfMs, calls = map[string]float64{}, map[string]int{}
	if t == nil {
		return
	}
	t.mu.Lock()
	spans := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	for _, s := range spans {
		if s == root || !under(s, root) {
			continue
		}
		selfMs[s.layer] += float64(self[s]) / float64(time.Millisecond)
		calls[s.layer]++
	}
	return
}

// uncoveredFrac is the share of root's duration that no descendant span
// covers (concurrent spans counted once): the driver's own time.
func (t *tracer) uncoveredFrac(root *span) float64 {
	if t == nil || root == nil {
		return 0
	}
	t.mu.Lock()
	var ivs []interval
	for _, s := range t.spans {
		if s != root && under(s, root) {
			ivs = append(ivs, interval{s.start.UnixNano(), s.end.UnixNano()})
		}
	}
	t.mu.Unlock()
	lo, hi := root.start.UnixNano(), root.end.UnixNano()
	if hi <= lo {
		return 0
	}
	return 1 - float64(coveredLength(lo, hi, ivs))/float64(hi-lo)
}

// under reports whether s is a descendant of root.
func under(s, root *span) bool {
	for p := s.parent; p != nil; p = p.parent {
		if p == root {
			return true
		}
	}
	return false
}

// write renders the buffered spans as Chrome trace_event JSON, loadable
// in Perfetto: one track per lane, spans named "layer:name", with the
// operation id, layer and self time as arguments.
func (t *tracer) write(w io.Writer, process string) error {
	t.mu.Lock()
	spans := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	self := selfTimes(spans)
	tw := obs.NewTraceWriter(w)
	tw.ProcessName(1, process)
	lanes := map[int]bool{}
	for _, s := range spans {
		if !lanes[s.lane] {
			lanes[s.lane] = true
			name := "driver"
			if s.lane > 0 {
				name = "client " + strconv.Itoa(s.lane)
			}
			tw.ThreadName(1, int64(s.lane), name)
		}
		args := map[string]any{"layer": s.layer, "self_us": self[s].Microseconds()}
		if s.opID >= 0 {
			args["op"] = s.opID
		}
		if s.parent != nil {
			args["parent"] = s.parent.layer + ":" + s.parent.name
		}
		tw.Complete(1, int64(s.lane), s.layer+":"+s.name,
			s.start.Sub(t.epoch).Microseconds(), s.end.Sub(s.start).Microseconds(), args)
	}
	return tw.Close()
}

// spanCostNs measures the cost of one start+finish pair on a scratch
// tracer — the unit the computed tracing overhead is built from.
func spanCostNs() float64 {
	const n = 50000
	t := newTracer()
	root := t.start(nil, "bench", "cost", -1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.start(root, "bench", "x", i).finish()
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}
