package schedule

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/kernels"
)

func TestRampValuePureFunctionOfStep(t *testing.T) {
	r := Ramp{Param: ParamPullVelocity, Step: 100, Over: 50, From: 0.02, To: 0.06}
	if v := r.Value(0); v != 0.02 {
		t.Errorf("before start: %g", v)
	}
	if v := r.Value(100); v != 0.02 {
		t.Errorf("at start: %g", v)
	}
	if v := r.Value(150); v != 0.06 {
		t.Errorf("at end: %g", v)
	}
	if v := r.Value(1000); v != 0.06 {
		t.Errorf("after end: %g", v)
	}
	mid := r.Value(125)
	if math.Abs(mid-0.04) > 1e-15 {
		t.Errorf("midpoint: %g", mid)
	}
	// Bit-compatibility across restarts rests on Value being a pure
	// function of the step index.
	for _, s := range []int{100, 113, 137, 150} {
		if r.Value(s) != r.Value(s) {
			t.Fatalf("Value(%d) not deterministic", s)
		}
	}
}

func TestNewSortsAndValidates(t *testing.T) {
	s, err := New(
		NucleationBurst{Step: 50, Count: 1, Phase: 0, Radius: 2, ZMin: 0, ZMax: 8},
		NucleationBurst{Step: 10, Count: 2, Phase: -1, Radius: 2, ZMin: 0, ZMax: 8},
		Ramp{Param: ParamGradient, Step: 0, Over: 20, From: 1, To: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].StartStep() < s.Events[i-1].StartStep() {
			t.Fatal("events not sorted by start step")
		}
	}
	one := s.OneShots()
	if len(one) != 2 {
		t.Fatalf("one-shots: %d", len(one))
	}
	if b, ok := one[0].(NucleationBurst); !ok || b.Step != 10 {
		t.Error("step-10 burst should fire before the step-50 burst")
	}
	if s.EndStep() != 50 {
		t.Errorf("end step %d", s.EndStep())
	}
}

func TestValidationRejects(t *testing.T) {
	cases := []Event{
		NucleationBurst{Step: -1, Count: 1, Phase: 0, Radius: 1, ZMin: 0, ZMax: 1},
		NucleationBurst{Step: 0, Count: 0, Phase: 0, Radius: 1, ZMin: 0, ZMax: 1},
		NucleationBurst{Step: 0, Count: 1, Phase: 0, Radius: 0, ZMin: 0, ZMax: 1},
		NucleationBurst{Step: 0, Count: 1, Phase: 0, Radius: 1, ZMin: 5, ZMax: 5},
		NucleationBurst{Step: 0, Count: 1, Phase: kernels.NP - 1, Radius: 1, ZMin: 0, ZMax: 1},
		Ramp{Param: ParamDt, Step: 0, Over: 0, From: 1, To: 2},
		Ramp{Param: ParamDt, Step: 0, Over: 5, From: 0, To: 2},
		Ramp{Param: Param(99), Step: 0, Over: 5, From: 1, To: 2},
		Checkpoint{Step: 0, Every: 0},
	}
	for i, e := range cases {
		if _, err := New(e); err == nil {
			t.Errorf("case %d (%#v) accepted", i, e)
		}
	}
}

func TestCheckpointDue(t *testing.T) {
	c := Checkpoint{Step: 0, Every: 50}
	for _, step := range []int{50, 100, 150} {
		if !c.Due(step) {
			t.Errorf("not due at %d", step)
		}
	}
	for _, step := range []int{0, 49, 51} {
		if c.Due(step) {
			t.Errorf("due at %d", step)
		}
	}
	off := Checkpoint{Step: 30, Every: 50}
	if off.Due(50) || !off.Due(80) {
		t.Error("offset cadence wrong")
	}
}

func TestFromJSON(t *testing.T) {
	src := `{"events": [
	  {"type": "ramp", "param": "v", "step": 0, "over": 800, "from": 0.02, "to": 0.05},
	  {"type": "burst", "step": 200, "count": 6, "phase": -1, "radius": 2.5, "zmin": 40, "zmax": 56, "seed": 7},
	  {"type": "checkpoint", "every": 500, "path": "out/state_%06d.pfcp"}
	]}`
	s, err := FromJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 3 {
		t.Fatalf("parsed %d events", len(s.Events))
	}
	if len(s.Ramps()) != 1 || s.Ramps()[0].To != 0.05 {
		t.Error("ramp not parsed")
	}
	b := s.OneShots()[0].(NucleationBurst)
	if b.Phase != -1 || b.Count != 6 || b.Seed != 7 {
		t.Errorf("burst parsed as %+v", b)
	}
	ck := s.Checkpoints()[0]
	if ck.Every != 500 || ck.Path != "out/state_%06d.pfcp" {
		t.Errorf("checkpoint parsed as %+v", ck)
	}
}

func TestFromJSONPhaseZeroDistinctFromOmitted(t *testing.T) {
	s, err := FromJSON(strings.NewReader(
		`{"events": [{"type": "burst", "step": 0, "count": 1, "phase": 0, "radius": 1, "zmin": 0, "zmax": 4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if b := s.Events[0].(NucleationBurst); b.Phase != 0 {
		t.Errorf("explicit phase 0 parsed as %d", b.Phase)
	}
}

func TestFromJSONRejects(t *testing.T) {
	bad := []string{
		`{"events": [{"type": "warp", "step": 1}]}`,
		`{"events": [{"type": "ramp", "param": "q", "step": 0, "over": 10}]}`,
		`{"events": [{"type": "burst", "step": 0, "count": 1, "radius": 1, "zmin": 4, "zmax": 4}]}`,
		`{"events": [{"type": "checkpoint", "unknownfield": 3}]}`,
		`not json`,
	}
	for i, src := range bad {
		if _, err := FromJSON(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted: %s", i, src)
		}
	}
	// A legacy kernel-switch event is rejected with the reason, not as an
	// unknown field or type, and never silently dropped.
	_, err := FromJSON(strings.NewReader(
		`{"events": [{"type": "switch", "step": 400, "phi": "shortcut", "mu": "stag", "strategy": "fourcell"}]}`))
	if err == nil || !strings.HasPrefix(err.Error(), "schedule:") ||
		!strings.Contains(err.Error(), "fixed when the simulation is built") {
		t.Errorf("switch event: got %v, want the explanatory schedule: error", err)
	}
}

func TestEventStrings(t *testing.T) {
	evs := []Event{
		NucleationBurst{Step: 1, Count: 3, Phase: -1, Radius: 2, ZMin: 0, ZMax: 9},
		Ramp{Param: ParamPullVelocity, Step: 0, Over: 10, From: 1, To: 2},
		SetBC{Step: 3, Over: 4, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
			From: []float64{0, 0}, To: []float64{1, -1}},
		SetBC{Step: 3, Face: grid.ZMax, Field: BCPhi, Kind: grid.BCNeumann},
	}
	for _, e := range evs {
		if s, ok := e.(interface{ String() string }); !ok || s.String() == "" {
			t.Errorf("%T has no useful String()", e)
		}
	}
}

func TestSetBCValuesPureFunctionOfStep(t *testing.T) {
	e := SetBC{Step: 100, Over: 50, Face: grid.ZMin, Field: BCMu,
		Kind: grid.BCDirichlet, From: []float64{0, 0}, To: []float64{0.08, -0.04}}
	var buf [kernels.NP]float64
	at := func(step int) []float64 { return append([]float64(nil), e.ValuesAt(step, buf[:])...) }

	if got := at(100); got[0] != 0 || got[1] != 0 {
		t.Errorf("at start: %v", got)
	}
	if got := at(150); got[0] != 0.08 || got[1] != -0.04 {
		t.Errorf("at end: %v", got)
	}
	if got := at(1000); got[0] != 0.08 || got[1] != -0.04 {
		t.Errorf("after end: %v", got)
	}
	mid := at(125)
	if math.Abs(mid[0]-0.04) > 1e-15 || math.Abs(mid[1]+0.02) > 1e-15 {
		t.Errorf("midpoint: %v", mid)
	}
	// The interpolation must mirror Ramp.Value bit-for-bit so a restart
	// mid-BC-ramp recomputes identical wall values.
	r := Ramp{Param: ParamGradient, Step: 100, Over: 50, From: 0, To: 0.08}
	for _, s := range []int{100, 113, 137, 150} {
		if at(s)[0] != r.Value(s) {
			t.Fatalf("step %d: SetBC %g != Ramp %g", s, at(s)[0], r.Value(s))
		}
	}

	// Over 0 installs To immediately, with or without From.
	imm := SetBC{Step: 5, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet, To: []float64{1, 2}}
	if got := imm.ValuesAt(5, buf[:]); got[0] != 1 || got[1] != 2 {
		t.Errorf("immediate: %v", got)
	}
}

func TestSetBCValidation(t *testing.T) {
	bad := []Event{
		SetBC{Step: -1, Face: grid.ZMin, Field: BCMu, Kind: grid.BCNeumann},
		SetBC{Step: 0, Face: grid.Face(9), Field: BCMu, Kind: grid.BCNeumann},
		SetBC{Step: 0, Face: grid.ZMin, Field: BCField(7), Kind: grid.BCNeumann},
		SetBC{Step: 0, Face: grid.ZMin, Field: BCMu, Kind: grid.BCNone},
		SetBC{Step: 0, Face: grid.ZMin, Field: BCMu, Kind: grid.BCKind(42)},
		// Dirichlet arity must match the field (µ: 2, φ: 4).
		SetBC{Step: 0, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet, To: []float64{1}},
		SetBC{Step: 0, Face: grid.ZMin, Field: BCPhi, Kind: grid.BCDirichlet, To: []float64{1, 0}},
		// A ramp needs both endpoints at matching arity.
		SetBC{Step: 0, Over: 5, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet, To: []float64{1, 2}},
		SetBC{Step: 0, Over: 5, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
			From: []float64{1}, To: []float64{1, 2}},
		// Non-Dirichlet kinds carry no payload.
		SetBC{Step: 0, Face: grid.ZMin, Field: BCMu, Kind: grid.BCNeumann, To: []float64{1, 2}},
		SetBC{Step: 0, Over: 3, Face: grid.ZMin, Field: BCMu, Kind: grid.BCPeriodic},
		// Non-finite wall values.
		SetBC{Step: 0, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet, To: []float64{math.NaN(), 0}},
		SetBC{Step: 0, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet, To: []float64{math.Inf(1), 0}},
		SetBC{Step: 0, Over: -1, Face: grid.ZMin, Field: BCMu, Kind: grid.BCNeumann},
	}
	for i, e := range bad {
		if _, err := New(e); err == nil {
			t.Errorf("case %d (%#v) accepted", i, e)
		}
	}
	good := SetBC{Step: 0, Over: 10, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
		From: []float64{0, 0}, To: []float64{1, 2}}
	if _, err := New(good); err != nil {
		t.Errorf("valid setbc rejected: %v", err)
	}
}

func TestComposeMergesAndOrders(t *testing.T) {
	base, err := New(
		Ramp{Param: ParamPullVelocity, Step: 0, Over: 30, From: 0.02, To: 0.05},
		NucleationBurst{Step: 10, Count: 2, Phase: -1, Radius: 2, ZMin: 0, ZMax: 8, Seed: 1},
		NucleationBurst{Step: 10, Count: 1, Phase: 0, Radius: 2, ZMin: 0, ZMax: 8, Seed: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	overlay, err := New(
		SetBC{Step: 10, Over: 8, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
			From: []float64{0, 0}, To: []float64{0.06, -0.03}},
		NucleationBurst{Step: 10, Count: 1, Phase: 1, Radius: 2, ZMin: 0, ZMax: 8, Seed: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compose(base, nil, overlay)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) != 5 {
		t.Fatalf("composed %d events", len(c.Events))
	}
	for i := 1; i < len(c.Events); i++ {
		if c.Events[i].StartStep() < c.Events[i-1].StartStep() {
			t.Fatal("composed events not sorted")
		}
	}
	// Same-step ties resolve by argument position: the base schedule's
	// step-10 events fire before the overlay's.
	one := c.OneShots()
	if len(one) != 3 {
		t.Fatalf("one-shots: %d", len(one))
	}
	for i, e := range one {
		if b, ok := e.(NucleationBurst); !ok || b.Seed != int64(i+1) {
			t.Errorf("one-shot %d is %+v: base bursts should fire in order, the overlay's last", i, e)
		}
	}
	if got := c.SetBCs(); len(got) != 1 || got[0].Face != grid.ZMin {
		t.Errorf("setbc events: %+v", got)
	}
	if c.EndStep() != 30 {
		t.Errorf("end step %d", c.EndStep())
	}

	// Determinism: composing the same inputs again yields the same order.
	c2, err := Compose(base, nil, overlay)
	if err != nil {
		t.Fatal(err)
	}
	// Events hold slices, so compare via formatting.
	for i := range c.Events {
		if fmt.Sprintf("%#v", c.Events[i]) != fmt.Sprintf("%#v", c2.Events[i]) {
			t.Fatalf("compose not deterministic at event %d", i)
		}
	}
}

func TestComposeRejectsConflicts(t *testing.T) {
	mk := func(t *testing.T, evs ...Event) *Schedule {
		t.Helper()
		s, err := New(evs...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		a, b *Schedule
	}{
		{"overlapping setbc ramps on one face/field",
			mk(t, SetBC{Step: 0, Over: 10, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
				From: []float64{0, 0}, To: []float64{1, 1}}),
			mk(t, SetBC{Step: 5, Over: 10, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
				From: []float64{2, 2}, To: []float64{3, 3}})},
		{"same-step immediate setbc on one face/field",
			mk(t, SetBC{Step: 4, Face: grid.ZMax, Field: BCPhi, Kind: grid.BCNeumann}),
			mk(t, SetBC{Step: 4, Face: grid.ZMax, Field: BCPhi, Kind: grid.BCDirichlet,
				To: []float64{1, 0, 0, 0}})},
		{"same-step ramps of one parameter",
			mk(t, Ramp{Param: ParamGradient, Step: 7, Over: 10, From: 1, To: 2}),
			mk(t, Ramp{Param: ParamGradient, Step: 7, Over: 20, From: 1, To: 3})},
	}
	for _, c := range cases {
		if _, err := Compose(c.a, c.b); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	// Legal combinations: a later SetBC overriding a settled one, ramps of
	// one parameter at different steps.
	ok := [][2]*Schedule{
		{mk(t, SetBC{Step: 0, Over: 10, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
			From: []float64{0, 0}, To: []float64{1, 1}}),
			mk(t, SetBC{Step: 10, Face: grid.ZMin, Field: BCMu, Kind: grid.BCNeumann})},
		{mk(t, SetBC{Step: 2, Face: grid.ZMin, Field: BCMu, Kind: grid.BCNeumann}),
			mk(t, SetBC{Step: 2, Face: grid.ZMin, Field: BCPhi, Kind: grid.BCNeumann})},
		{mk(t, Ramp{Param: ParamGradient, Step: 0, Over: 10, From: 1, To: 2}),
			mk(t, Ramp{Param: ParamGradient, Step: 12, Over: 10, From: 2, To: 3})},
	}
	for i, pair := range ok {
		if _, err := Compose(pair[0], pair[1]); err != nil {
			t.Errorf("legal combination %d rejected: %v", i, err)
		}
	}
}

func TestFromJSONSetBC(t *testing.T) {
	src := `{"events": [
	  {"type": "setbc", "step": 300, "over": 200, "face": "z-", "field": "mu",
	   "kind": "dirichlet", "from": [0, 0], "to": [0.08, -0.04]},
	  {"type": "setbc", "step": 500, "face": "top", "field": "phi", "kind": "neumann"}
	]}`
	s, err := FromJSON(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	bcs := s.SetBCs()
	if len(bcs) != 2 {
		t.Fatalf("parsed %d setbc events", len(bcs))
	}
	b := bcs[0]
	if b.Face != grid.ZMin || b.Field != BCMu || b.Kind != grid.BCDirichlet ||
		b.Over != 200 || b.From[1] != 0 || b.To[0] != 0.08 || b.To[1] != -0.04 {
		t.Errorf("setbc parsed as %+v", b)
	}
	if bcs[1].Face != grid.ZMax || bcs[1].Field != BCPhi || bcs[1].Kind != grid.BCNeumann {
		t.Errorf("top-face setbc parsed as %+v", bcs[1])
	}

	bad := []string{
		`{"events": [{"type": "setbc", "step": 0, "face": "q-", "field": "mu", "kind": "neumann"}]}`,
		`{"events": [{"type": "setbc", "step": 0, "face": "z-", "field": "rho", "kind": "neumann"}]}`,
		`{"events": [{"type": "setbc", "step": 0, "face": "z-", "field": "mu", "kind": "robin"}]}`,
		`{"events": [{"type": "setbc", "step": 0, "face": "z-", "field": "mu", "kind": "dirichlet", "to": 3}]}`,
		`{"events": [{"type": "ramp", "param": "v", "step": 0, "over": 10, "from": [1], "to": 2}]}`,
	}
	for i, src := range bad {
		if _, err := FromJSON(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted: %s", i, src)
		}
	}
}

// Conflict validation lives in New, so a single schedule file is held to
// the same rules as a composition — the solver's last-wins application
// loop relies on ambiguous overlaps never reaching it.
func TestNewRejectsConflictsInSingleSchedule(t *testing.T) {
	if _, err := New(
		SetBC{Step: 0, Over: 10, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
			From: []float64{0, 0}, To: []float64{1, 1}},
		SetBC{Step: 5, Over: 10, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
			From: []float64{2, 2}, To: []float64{3, 3}},
	); err == nil {
		t.Error("overlapping setbc ramps in one schedule accepted")
	}
	src := `{"events": [
	  {"type": "setbc", "step": 0, "over": 10, "face": "z-", "field": "mu", "kind": "dirichlet", "from": [0,0], "to": [1,1]},
	  {"type": "setbc", "step": 5, "over": 10, "face": "z-", "field": "mu", "kind": "dirichlet", "from": [2,2], "to": [3,3]}
	]}`
	if _, err := FromJSON(strings.NewReader(src)); err == nil {
		t.Error("overlapping setbc ramps in one JSON file accepted")
	}
	if _, err := New(
		Ramp{Param: ParamGradient, Step: 7, Over: 10, From: 1, To: 2},
		Ramp{Param: ParamGradient, Step: 7, Over: 20, From: 1, To: 3},
	); err == nil {
		t.Error("same-step same-param ramps in one schedule accepted")
	}
}

// Finite endpoints whose difference overflows must be rejected — the
// interpolation computes To-From, and an Inf wall value would turn the
// fields NaN within a step.
func TestOverflowingRampSpansRejected(t *testing.T) {
	if _, err := New(Ramp{Param: ParamGradient, Step: 0, Over: 2, From: 1e308, To: -1e308}); err == nil {
		t.Error("overflowing ramp span accepted")
	}
	if _, err := New(SetBC{Step: 0, Over: 2, Face: grid.ZMin, Field: BCMu, Kind: grid.BCDirichlet,
		From: []float64{1e308, 0}, To: []float64{-1e308, 0}}); err == nil {
		t.Error("overflowing setbc span accepted")
	}
}
