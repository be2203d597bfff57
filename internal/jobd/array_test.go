package jobd

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"
)

// sweepArraySpec builds a small array submission: a velocity-ramp template
// swept over vmax and seed.
func sweepArraySpec(class string, steps int, vmax []float64, seeds []float64) ArraySpec {
	return ArraySpec{
		Name: "sweep",
		Template: Spec{
			NX: 8, NY: 8, NZ: 8, Steps: steps, Scenario: "interface", Class: class,
			Schedule: json.RawMessage(`{"events":[
				{"type":"ramp","param":"v","step":0,"over":` + fmt.Sprint(steps) + `,"from":0.02,"to":"${vmax}"}
			]}`),
		},
		Axes: []Axis{
			{Param: "vmax", Values: vmax},
			{Param: "seed", Values: seeds},
		},
	}
}

// Expansion is deterministic: child ids derive from the array id and grid
// index, the grid is row-major with the first axis slowest, and every
// child records its parameter assignment.
func TestArrayExpansion(t *testing.T) {
	s := New(Config{Budget: 2})
	arr, err := s.SubmitArray(sweepArraySpec("", 6, []float64{0.03, 0.05}, []float64{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(arr.Children) != 6 {
		t.Fatalf("expanded %d children, want 6", len(arr.Children))
	}
	for i, cid := range arr.Children {
		want := fmt.Sprintf("%s.%03d", arr.ID, i)
		if cid != want {
			t.Errorf("child %d id %q, want %q", i, cid, want)
		}
	}
	// Row-major: first axis (vmax) slowest.
	j3, _ := s.Get(arr.Children[3])
	if j3.Spec.Params["vmax"] != 0.05 || j3.Spec.Params["seed"] != 1 {
		t.Errorf("child 3 params %v, want vmax=0.05 seed=1", j3.Spec.Params)
	}
	if j3.Spec.Seed != 1 {
		t.Errorf("child 3 spec seed %d, want 1", j3.Spec.Seed)
	}
	// The substituted schedule parses and carries the grid value.
	if _, err := j3.Spec.normalize(); err != nil {
		t.Errorf("child 3 schedule invalid: %v", err)
	}
	// Children share the array fairness group.
	if j3.group != arr.ID || j3.array != arr.ID {
		t.Errorf("child group %q array %q, want %q", j3.group, j3.array, arr.ID)
	}
}

func TestArrayValidation(t *testing.T) {
	s := New(Config{Budget: 2, Classes: map[string]int{"small": 1}})
	base := sweepArraySpec("", 6, []float64{0.03}, []float64{1})
	cases := []func(*ArraySpec){
		func(a *ArraySpec) { a.Axes = nil },
		func(a *ArraySpec) { a.Axes[0].Param = "" },
		func(a *ArraySpec) { a.Axes[0].Values = nil },
		func(a *ArraySpec) { a.Axes[1].Param = "vmax" },                 // duplicate
		func(a *ArraySpec) { a.Axes[0].Param = "nope" },                 // not in template
		func(a *ArraySpec) { a.Axes[1].Values = []float64{1.5} },        // fractional seed
		func(a *ArraySpec) { a.Template.Class = "ghost" },               // unknown class
		func(a *ArraySpec) { a.Template.Steps = 0 },                     // invalid child spec
		func(a *ArraySpec) { a.Template.Schedule = nil },                // placeholder axis, no template
		func(a *ArraySpec) { a.Axes[0].Values = make([]float64, 2048) }, // too many children
		func(a *ArraySpec) { a.Axes[0].Values = []float64{0.03, math.Inf(1)} },
	}
	for i, mutate := range cases {
		as := base
		as.Template = base.Template
		as.Axes = []Axis{
			{Param: base.Axes[0].Param, Values: append([]float64(nil), base.Axes[0].Values...)},
			{Param: base.Axes[1].Param, Values: append([]float64(nil), base.Axes[1].Values...)},
		}
		mutate(&as)
		if _, err := s.SubmitArray(as); err == nil {
			t.Errorf("case %d: invalid array accepted", i)
		}
	}
	// The template's own Params supply fixed parameters.
	as := base
	as.Template.Schedule = json.RawMessage(`{"events":[
		{"type":"ramp","param":"v","step":0,"over":"${over}","from":0.02,"to":"${vmax}"}
	]}`)
	as.Template.Params = map[string]float64{"over": 6}
	if _, err := s.SubmitArray(as); err != nil {
		t.Errorf("fixed template param rejected: %v", err)
	}
}

// Within one priority level the scheduler serves fairness groups
// round-robin: a wide array does not drain FIFO ahead of a later single
// job.
func TestArrayFairInterleaving(t *testing.T) {
	s := New(Config{Budget: 1}) // scheduler never started: we pop by hand
	arr, err := s.SubmitArray(sweepArraySpec("", 6, []float64{0.03, 0.04, 0.05}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	single, err := s.Submit(Spec{Name: "single", NX: 8, NY: 8, NZ: 8, Steps: 4, Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	pop := func() *Job {
		s.mu.Lock()
		defer s.mu.Unlock()
		j := s.bestQueuedLocked(nil)
		if j == nil {
			return nil
		}
		s.dropFromQueueLocked(j)
		s.pickSeq++
		s.groupPick[j.group] = s.pickSeq
		return j
	}
	var order []string
	for j := pop(); j != nil; j = pop() {
		order = append(order, j.ID)
	}
	want := []string{arr.Children[0], single.ID, arr.Children[1], arr.Children[2]}
	if len(order) != len(want) {
		t.Fatalf("popped %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("popped %v, want %v (single job starved behind the array)", order, want)
		}
	}

	// Priority still dominates fairness.
	urgent, err := s.Submit(Spec{Name: "urgent", NX: 8, NY: 8, NZ: 8, Steps: 4,
		Priority: 5, Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Spec{Name: "later", NX: 8, NY: 8, NZ: 8, Steps: 4,
		Scenario: "interface"}); err != nil {
		t.Fatal(err)
	}
	if j := pop(); j == nil || j.ID != urgent.ID {
		t.Fatalf("popped %v, want urgent job first", j)
	}
}

// A sustained stream of fresh single submissions cannot starve a waiting
// array: new fairness groups join at the *current* pick sequence (not 0),
// so service alternates between the array and the newcomers.
func TestFreshSinglesDontStarveWaitingArrays(t *testing.T) {
	s := New(Config{Budget: 1}) // scheduler never started: we pop by hand
	arr, err := s.SubmitArray(sweepArraySpec("", 6, []float64{0.03, 0.04, 0.05}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	pop := func() *Job {
		s.mu.Lock()
		defer s.mu.Unlock()
		j := s.bestQueuedLocked(nil)
		if j == nil {
			return nil
		}
		s.dropFromQueueLocked(j)
		s.pickSeq++
		s.groupPick[j.group] = s.pickSeq
		s.pruneGroupLocked(j.group)
		return j
	}
	single := func(name string) *Job {
		j, err := s.Submit(Spec{Name: name, NX: 8, NY: 8, NZ: 8, Steps: 4, Scenario: "interface"})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	var order []string
	order = append(order, pop().ID) // first array child
	var singles []*Job
	for i := 0; i < 3; i++ {
		// A fresh single arrives before every scheduling decision.
		singles = append(singles, single(fmt.Sprintf("s%d", i)))
		order = append(order, pop().ID)
	}
	for j := pop(); j != nil; j = pop() {
		order = append(order, j.ID)
	}
	want := []string{arr.Children[0], arr.Children[1], singles[0].ID,
		arr.Children[2], singles[1].ID, singles[2].ID}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("service order %v, want %v (array starved or singles starved)", order, want)
		}
	}
	// The fairness map is pruned once groups leave the queue.
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.groupPick) > 1 {
		t.Errorf("groupPick retains %d entries after the queue drained", len(s.groupPick))
	}
}

// A queued job whose class cap is saturated must not head-of-line-block
// an admissible job of another class: admission backfills past it.
func TestClassSaturationDoesNotBlockOtherClasses(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, Budget: 4, ReportEvery: 1,
		Classes: map[string]int{"scout": 1, "large": 3}})
	s.Start()
	defer s.Close()

	// A long scout job saturates the scout cap (W_scout = 1).
	a, err := s.Submit(Spec{Name: "a", NX: 10, NY: 10, NZ: 12, Steps: 4000,
		Class: "scout", Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "scout job to start", 30*time.Second, func() bool {
		return a.State() == StateRunning
	})
	// A second scout queues (share would be 0) ahead of a large job.
	b, err := s.Submit(Spec{Name: "b", NX: 8, NY: 8, NZ: 8, Steps: 2,
		Class: "scout", Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Submit(Spec{Name: "c", NX: 8, NY: 8, NZ: 8, Steps: 2,
		Class: "large", Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	// The large job must finish while the first scout still runs — i.e. it
	// was admitted past the stuck scout, not serialized behind it.
	waitFor(t, "large job to finish while scout runs", 60*time.Second, func() bool {
		return c.State() == StateDone
	})
	if st := a.State(); st != StateRunning {
		t.Fatalf("long scout job is %v; the large job should have backfilled alongside it", st)
	}
	if st := b.State(); st != StateQueued {
		t.Fatalf("second scout is %v, want queued behind its class cap", st)
	}
	s.Cancel(a.ID)
	s.Cancel(b.ID)
}

// Preemption is class-aware: the victim must be one whose eviction
// actually admits the outranking job. Evicting an unrelated-class job
// (the old lowest-priority-wins rule) would just thrash — admission
// re-admits the victim because the blocked job's own class is still
// saturated.
func TestPreemptionIsClassAware(t *testing.T) {
	s := New(Config{MaxConcurrent: 2, Budget: 4, ReportEvery: 1,
		Classes: map[string]int{"small": 2}})
	s.Start()
	defer s.Close()

	// r1 (class small) and l (default) fill both slots.
	r1, err := s.Submit(Spec{Name: "r1", NX: 10, NY: 10, NZ: 12, Steps: 4000,
		Class: "small", Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Submit(Spec{Name: "l", NX: 10, NY: 10, NZ: 12, Steps: 4000,
		Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both fillers to run", 30*time.Second, func() bool {
		return r1.State() == StateRunning && l.State() == StateRunning
	})

	// b outranks both but needs the whole small cap (2 blocks): only
	// evicting r1 — its class peer — can admit it.
	b, err := s.Submit(Spec{Name: "b", NX: 8, NY: 8, NZ: 8, PX: 2, Steps: 2,
		Priority: 5, Class: "small", Scenario: "interface"})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "outranking small job to finish", 60*time.Second, func() bool {
		return b.State() == StateDone
	})
	if got := l.Status().Preemptions; got != 0 {
		t.Errorf("default-class job was preempted %d times — victim selection ignored class admissibility", got)
	}
	if got := r1.Status().Preemptions; got < 1 {
		t.Errorf("small-class filler was never preempted (preemptions=%d)", got)
	}
	s.Cancel(r1.ID)
	s.Cancel(l.ID)
}

// newTestJob registers a fake running job for share-policy tests.
func newTestJob(s *Server, id, class string) *Job {
	spec := Spec{NX: 8, NY: 8, NZ: 8, PX: 1, PY: 1, Steps: 1, Class: class}
	j := newJob(id, 0, spec, nil)
	s.running[id] = j
	return j
}

// Per-class water-filling: a capped class never exceeds its budget, the
// leftover flows to other classes, and a single class reduces to the
// original even split.
func TestSharesWaterFill(t *testing.T) {
	s := New(Config{Budget: 8, Classes: map[string]int{"small": 2, "large": 8}})

	// One small + one large: small capped at 2, large soaks up the rest.
	a := newTestJob(s, "a", "small")
	b := newTestJob(s, "b", "large")
	shares := s.sharesLocked(nil)
	if shares[a] != 2 || shares[b] != 6 {
		t.Errorf("shares small=%d large=%d, want 2/6", shares[a], shares[b])
	}

	// Three small scouts collectively still hold ≤ 2.
	c := newTestJob(s, "c", "small")
	d := newTestJob(s, "d", "small")
	shares = s.sharesLocked(nil)
	if total := shares[a] + shares[c] + shares[d]; total > 2 {
		t.Errorf("small class holds %d workers, cap is 2", total)
	}
	if shares[b] < 6 {
		t.Errorf("large job diluted to %d by scouts, want ≥ 6", shares[b])
	}

	// Single default class = the original ⌊W/n⌋ policy.
	s2 := New(Config{Budget: 8})
	j1 := newTestJob(s2, "1", DefaultClass)
	j2 := newTestJob(s2, "2", DefaultClass)
	j3 := newTestJob(s2, "3", DefaultClass)
	shares = s2.sharesLocked(nil)
	for _, j := range []*Job{j1, j2, j3} {
		if shares[j] != 8/3 {
			t.Errorf("default-class share %d, want %d", shares[j], 8/3)
		}
	}

	// The shares never sum past the global budget, candidate included.
	cand := newJob("cand", 99, Spec{NX: 8, NY: 8, NZ: 8, PX: 1, PY: 1, Steps: 1, Class: "large"}, nil)
	delete(s.running, "cand")
	shares = s.sharesLocked(cand)
	total := 0
	for _, sh := range shares {
		total += sh
	}
	if total > 8 {
		t.Errorf("shares sum to %d, budget is 8", total)
	}
}

func TestClassValidation(t *testing.T) {
	s := New(Config{Budget: 4, Classes: map[string]int{"small": 2}})
	if _, err := s.Submit(Spec{NX: 8, NY: 8, NZ: 8, Steps: 2, Class: "ghost"}); err == nil {
		t.Error("unknown class accepted")
	}
	// A 2×2 decomposition cannot fit class small's 2-worker cap.
	if _, err := s.Submit(Spec{NX: 8, NY: 8, NZ: 8, PX: 2, PY: 2, Steps: 2, Class: "small"}); err == nil {
		t.Error("decomposition wider than the class cap accepted")
	}
	// Class budgets are clamped to the global budget.
	s2 := New(Config{Budget: 2, Classes: map[string]int{"huge": 64}})
	if got := s2.classBudget("huge"); got != 2 {
		t.Errorf("class budget %d, want clamped to 2", got)
	}
}

// An array drained mid-campaign resumes: the restarted daemon restores
// the array record and the children finish.
func TestArrayDrainResume(t *testing.T) {
	cfg := Config{MaxConcurrent: 1, Budget: 2, ReportEvery: 1, StoreDir: t.TempDir()}
	s1 := New(cfg)
	if _, err := s1.LoadStore(); err != nil {
		t.Fatal(err)
	}
	s1.Start()
	arr, err := s1.SubmitArray(sweepArraySpec("", 12, []float64{0.03, 0.05}, []float64{1}))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := s1.Get(arr.Children[0])
	waitFor(t, "first child to take steps", 30*time.Second, func() bool {
		return first.Status().Step >= 2
	})
	if err := s1.Drain(); err != nil {
		t.Fatal(err)
	}

	s2 := New(cfg)
	n, err := s2.LoadStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("store restored %d jobs, want 2", n)
	}
	arr2, ok := s2.GetArray(arr.ID)
	if !ok {
		t.Fatal("array record lost across drain")
	}
	s2.Start()
	defer s2.Close()
	waitFor(t, "array to finish after the restart", 60*time.Second, func() bool {
		return s2.ArrayStatus(arr2).State == StateDone
	})
	st := s2.ArrayStatus(arr2)
	if st.Counts[StateDone] != 2 || st.Missing != 0 {
		t.Fatalf("array status %+v", st)
	}
}
