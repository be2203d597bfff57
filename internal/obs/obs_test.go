package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestRingEviction(t *testing.T) {
	r := NewRing(4)
	if r.Last() != nil {
		t.Fatal("empty ring has a last record")
	}
	for i := 1; i <= 10; i++ {
		r.Push(StepRecord{Step: i})
	}
	if r.Len() != 4 || r.Total() != 10 {
		t.Fatalf("len=%d total=%d, want 4/10", r.Len(), r.Total())
	}
	got := r.Snapshot(nil)
	want := []int{7, 8, 9, 10}
	for i, rec := range got {
		if rec.Step != want[i] {
			t.Fatalf("snapshot[%d].Step = %d, want %d", i, rec.Step, want[i])
		}
	}
	if r.Last().Step != 10 {
		t.Fatalf("Last().Step = %d, want 10", r.Last().Step)
	}
	// Last aliases storage: folding post-step cost must stick.
	r.Last().Ckpt = time.Second
	if got := r.Snapshot(got); got[3].Ckpt != time.Second {
		t.Fatal("Last() write did not land in ring storage")
	}
}

func TestRingPartialSnapshot(t *testing.T) {
	r := NewRing(8)
	r.Push(StepRecord{Step: 1})
	r.Push(StepRecord{Step: 2})
	got := r.Snapshot(nil)
	if len(got) != 2 || got[0].Step != 1 || got[1].Step != 2 {
		t.Fatalf("partial snapshot = %+v", got)
	}
}

func TestStepTotals(t *testing.T) {
	var tot StepTotals
	tot.Add(StepRecord{Wall: time.Millisecond, PhiKernel: 300 * time.Microsecond, HaloBytes: 100})
	tot.Add(StepRecord{Wall: time.Millisecond, MuKernel: 200 * time.Microsecond, HaloBytes: 50})
	if tot.Steps != 2 || tot.Wall != 2*time.Millisecond || tot.HaloBytes != 150 {
		t.Fatalf("totals = %+v", tot)
	}
	prev := tot
	tot.Add(StepRecord{Wall: time.Millisecond, Sched: time.Microsecond})
	d := tot.Sub(prev)
	if d.Steps != 1 || d.Wall != time.Millisecond || d.Sched != time.Microsecond || d.HaloBytes != 0 {
		t.Fatalf("delta = %+v", d)
	}
	// 1e6 cells stepped once in 1ms → 1000 MLUP/s.
	m := StepTotals{Steps: 1, Wall: time.Millisecond}
	if got := m.MLUPs(1_000_000); got != 1000 {
		t.Fatalf("MLUPs = %g, want 1000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // bucket 0 (≤1µs)
	h.Observe(1 * time.Microsecond)  // bucket 0
	h.Observe(2 * time.Microsecond)  // bucket 1
	h.Observe(3 * time.Microsecond)  // bucket 2 (2µs < d ≤ 4µs)
	h.Observe(time.Hour)             // last bucket
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[2] != 1 || s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	bounds := BucketBounds()
	// Every sample must fall within its bucket's bound.
	if bounds[0] != time.Microsecond || bounds[1] != 2*time.Microsecond {
		t.Fatalf("bounds = %v", bounds[:3])
	}
	var m HistogramSnapshot
	m.Merge(s)
	m.Merge(s)
	if m.Count != 10 || m.Buckets[0] != 4 || m.Sum != 2*s.Sum {
		t.Fatalf("merge = %+v", m)
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Buckets[0] != 0 {
		t.Fatalf("reset left %+v", s)
	}
}

func TestHotPathAllocFree(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 8; i++ {
		r.Push(StepRecord{Step: i})
	}
	var h Histogram
	var tot StepTotals
	if n := testing.AllocsPerRun(100, func() {
		r.Push(StepRecord{Step: 1, Wall: time.Millisecond})
		_ = r.Last()
		h.Observe(3 * time.Microsecond)
		tot.Add(StepRecord{Wall: time.Millisecond})
	}); n != 0 {
		t.Fatalf("hot path allocates %.1f objects per run", n)
	}
}

func TestTraceWriter(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.ProcessName(1, `job "x"`) // quotes must survive escaping
	tw.ThreadName(1, 2, "φ kernel")
	tw.Complete(1, 2, "step 1", 100, 50, map[string]any{"mlups": 3.5})
	tw.Complete(1, 2, "zero-span", 200, 0, nil) // clamped to dur 1
	tw.Instant(1, 0, "retry", 300, nil)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["ph"] != "M" || doc.TraceEvents[2]["ph"] != "X" || doc.TraceEvents[4]["ph"] != "i" {
		t.Fatalf("phases wrong: %v", doc.TraceEvents)
	}
	if doc.TraceEvents[3]["dur"].(float64) != 1 {
		t.Fatal("zero-duration span not clamped to 1µs")
	}
}

func TestTraceWriterEmpty(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `{"traceEvents":[]}` {
		t.Fatalf("empty trace = %q", buf.String())
	}
}
