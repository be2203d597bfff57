package solver

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kernels"
	"repro/internal/schedule"
)

func mkSched(t *testing.T, events ...schedule.Event) *schedule.Schedule {
	t.Helper()
	s, err := schedule.New(events...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestApplyBurstSeedsSolidSpheres(t *testing.T) {
	s := mkSim(t, 2, 1, 1, 8, 16, 24, OverlapNone)
	if err := s.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	burst := schedule.NucleationBurst{Step: 0, Count: 3, Phase: 1, Radius: 2.5, ZMin: 8, ZMax: 16, Seed: 4}
	n, err := s.ApplyBurst(burst)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("burst painted no cells")
	}
	fr := s.PhaseFractions()
	want := float64(n) / float64(s.GlobalCells())
	if math.Abs(fr[1]-want) > 1e-12 {
		t.Errorf("phase-1 fraction %g, want %g from %d painted cells", fr[1], want, n)
	}
	for _, a := range []int{0, 2} {
		if fr[a] != 0 {
			t.Errorf("pinned burst painted phase %d (fraction %g)", a, fr[a])
		}
	}
	// Painting must leave ghosts consistent: a step must not blow up.
	s.Run(1)
	if s.HasNaN() {
		t.Error("NaN after burst + step")
	}
}

func TestApplyBurstDeterministicAcrossDecompositions(t *testing.T) {
	burst := schedule.NucleationBurst{Step: 0, Count: 4, Phase: -1, Radius: 2, ZMin: 4, ZMax: 20, Seed: 9}
	single := mkSim(t, 1, 1, 1, 16, 16, 24, OverlapNone)
	multi := mkSim(t, 2, 2, 1, 8, 8, 24, OverlapNone)
	for _, s := range []*Sim{single, multi} {
		if err := s.InitScenario(ScenarioLiquid); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ApplyBurst(burst); err != nil {
			t.Fatal(err)
		}
	}
	a := single.GatherGlobalPhi()
	b := multi.GatherGlobalPhi()
	if ok, maxd := a.InteriorEqual(b, 0); !ok {
		t.Errorf("burst depends on decomposition (maxd %g)", maxd)
	}
}

func TestApplyBurstSparesExistingGrains(t *testing.T) {
	s := mkSim(t, 1, 1, 1, 12, 12, 16, OverlapNone)
	if err := s.InitScenario(ScenarioSolid); err != nil {
		t.Fatal(err)
	}
	before := s.PhaseFractions()
	if _, err := s.ApplyBurst(schedule.NucleationBurst{
		Step: 0, Count: 5, Phase: 1, Radius: 3, ZMin: 0, ZMax: 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	after := s.PhaseFractions()
	if before != after {
		t.Errorf("burst overwrote solid cells: %v -> %v", before, after)
	}
}

func TestApplyBurstWindowAware(t *testing.T) {
	// After the window scrolls by k cells, a lab-frame burst at height z
	// must land at window height z-k.
	burst := schedule.NucleationBurst{Step: 0, Count: 2, Phase: 0, Radius: 2, ZMin: 12, ZMax: 18, Seed: 3}

	ref := mkSim(t, 1, 1, 1, 12, 12, 24, OverlapNone)
	if err := ref.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.ApplyBurst(burst); err != nil {
		t.Fatal(err)
	}

	shifted := mkSim(t, 1, 1, 1, 12, 12, 24, OverlapNone)
	if err := shifted.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	shifted.ShiftWindow(4)
	if _, err := shifted.ApplyBurst(burst); err != nil {
		t.Fatal(err)
	}

	a, b := ref.GatherGlobalPhi(), shifted.GatherGlobalPhi()
	mismatch := 0
	for z := 0; z < 24-4; z++ {
		for y := 0; y < 12; y++ {
			for x := 0; x < 12; x++ {
				for c := 0; c < core.NPhases; c++ {
					if a.At(c, x, y, z+4) != b.At(c, x, y, z) {
						mismatch++
					}
				}
			}
		}
	}
	if mismatch != 0 {
		t.Errorf("burst not window-aware: %d mismatched cells after 4-cell shift", mismatch)
	}
}

func TestRampKeepsTemperatureContinuous(t *testing.T) {
	s := mkSim(t, 1, 1, 1, 6, 6, 12, OverlapNone)
	if err := s.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	s.Run(10)
	p := s.Cfg.Params
	// Temperature profile right before the velocity change.
	before := make([]float64, 12)
	for z := range before {
		before[z] = p.Temp.At(z, p.Dx, s.time)
	}
	if err := s.applyRamp(schedule.Ramp{
		Param: schedule.ParamPullVelocity, Step: 0, Over: 1, From: p.Temp.V, To: 5 * p.Temp.V}); err != nil {
		t.Fatal(err)
	}
	for z := range before {
		after := p.Temp.At(z, p.Dx, s.time)
		if math.Abs(after-before[z]) > 1e-12 {
			t.Fatalf("T(z=%d) jumped %g -> %g at velocity change", z, before[z], after)
		}
	}
	// But the isotherm now moves faster: after Δt the profile must have
	// dropped 5× as fast as before.
	if math.Abs(p.Temp.DTdt()-(-p.Temp.G*p.Temp.V)) > 1e-15 {
		t.Error("DTdt inconsistent after ramp")
	}
}

func TestRampDtRejectsUnstable(t *testing.T) {
	s := mkSim(t, 1, 1, 1, 6, 6, 6, OverlapNone)
	bad := schedule.Ramp{Param: schedule.ParamDt, Step: 0, Over: 1,
		From: 10 * s.Cfg.Params.StableDt(), To: 10 * s.Cfg.Params.StableDt()}
	if err := s.applyRamp(bad); err == nil {
		t.Error("unstable dt accepted")
	}
}

func TestRunScheduleMatchesManualApplication(t *testing.T) {
	// A scheduled run must equal the same events applied by hand at the
	// same step boundaries — RunSchedule adds bookkeeping, not physics.
	sched := mkSched(t,
		schedule.Ramp{Param: schedule.ParamPullVelocity, Step: 0, Over: 8, From: 0.02, To: 0.05},
		schedule.NucleationBurst{Step: 3, Count: 2, Phase: 0, Radius: 2, ZMin: 10, ZMax: 14, Seed: 6},
	)

	auto := mkSim(t, 1, 1, 1, 10, 10, 16, OverlapNone)
	manual := mkSim(t, 1, 1, 1, 10, 10, 16, OverlapNone)
	for _, s := range []*Sim{auto, manual} {
		if err := s.InitScenario(ScenarioInterface); err != nil {
			t.Fatal(err)
		}
	}

	if err := auto.RunSchedule(10, sched, ScheduleHooks{}); err != nil {
		t.Fatal(err)
	}

	ramp := sched.Ramps()[0]
	for step := 0; step < 10; step++ {
		if step == 3 {
			if _, err := manual.ApplyBurst(sched.OneShots()[0].(schedule.NucleationBurst)); err != nil {
				t.Fatal(err)
			}
		}
		if err := manual.applyRamp(ramp); err != nil {
			t.Fatal(err)
		}
		manual.Run(1)
	}

	a, b := auto.GatherGlobalPhi(), manual.GatherGlobalPhi()
	if ok, maxd := a.InteriorEqual(b, 0); !ok {
		t.Errorf("scheduled φ differs from manual by %g", maxd)
	}
	am, bm := auto.GatherGlobalMu(), manual.GatherGlobalMu()
	if ok, maxd := am.InteriorEqual(bm, 0); !ok {
		t.Errorf("scheduled µ differs from manual by %g", maxd)
	}
	if auto.SchedulePos() != 1 {
		t.Errorf("schedule position %d after the one-shot", auto.SchedulePos())
	}
}

func TestRunScheduleCheckpointCadence(t *testing.T) {
	s := mkSim(t, 1, 1, 1, 6, 6, 8, OverlapNone)
	if err := s.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	sched := mkSched(t, schedule.Checkpoint{Every: 3, Path: "tmpl-%d"})
	var got []int
	hooks := ScheduleHooks{WriteCheckpoint: func(tmpl string, step int) error {
		if tmpl != "tmpl-%d" {
			t.Errorf("template %q", tmpl)
		}
		got = append(got, step)
		return nil
	}}
	if err := s.RunSchedule(10, sched, hooks); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("checkpoints at %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("checkpoints at %v, want %v", got, want)
		}
	}
}

func TestMuNormDeterministicAndPositive(t *testing.T) {
	s := mkSim(t, 2, 1, 1, 6, 12, 12, OverlapNone)
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	s.Run(3)
	n1, n2 := s.MuNorm(), s.MuNorm()
	if n1 != n2 {
		t.Error("MuNorm not deterministic")
	}
	if !(n1 > 0) || math.IsNaN(n1) {
		t.Errorf("MuNorm = %g", n1)
	}
}

// A scheduled SetBC event must change the live wall state — visible through
// DomainBCs and in the trajectory — without disturbing ghost consistency.
func TestSetBCAppliesLiveWall(t *testing.T) {
	const n = 6
	ev := schedule.SetBC{Step: 1, Over: 4, Face: grid.ZMin, Field: schedule.BCMu,
		Kind: grid.BCDirichlet, From: []float64{0, 0}, To: []float64{0.4, -0.2}}

	withBC := mkSim(t, 1, 1, 1, 10, 10, 14, OverlapNone)
	without := mkSim(t, 1, 1, 1, 10, 10, 14, OverlapNone)
	for _, s := range []*Sim{withBC, without} {
		if err := s.InitScenario(ScenarioInterface); err != nil {
			t.Fatal(err)
		}
	}
	if err := withBC.RunSchedule(n, mkSched(t, ev), ScheduleHooks{}); err != nil {
		t.Fatal(err)
	}
	without.Run(n)

	_, mu := withBC.DomainBCs()
	if mu[grid.ZMin].Kind != grid.BCDirichlet {
		t.Fatalf("bottom µ BC kind %v", mu[grid.ZMin].Kind)
	}
	// The last application ran before the final step, at step index n-1.
	var buf [kernels.NP]float64
	want := ev.ValuesAt(n-1, buf[:])
	for i := range want {
		if mu[grid.ZMin].Values[i] != want[i] {
			t.Errorf("wall value %d: %g, want %g", i, mu[grid.ZMin].Values[i], want[i])
		}
	}
	if withBC.HasNaN() {
		t.Fatal("NaN after BC ramp")
	}
	a, b := withBC.GatherGlobalMu(), without.GatherGlobalMu()
	if ok, _ := a.InteriorEqual(b, 0); ok {
		t.Error("BC ramp had no effect on the trajectory")
	}
}

// Mid-BC-ramp restart, in-memory (double precision): transplanting the
// fields and BC state at step k and continuing under the same schedule must
// be bitwise identical to the uninterrupted run — the discrete analogue of
// the V3-checkpoint guarantee, without the float32 round trip.
func TestSetBCMidRampRestartBitwise(t *testing.T) {
	const k, n = 3, 8
	sched := mkSched(t,
		schedule.Ramp{Param: schedule.ParamPullVelocity, Step: 0, Over: 6, From: 0.02, To: 0.05},
		schedule.SetBC{Step: 1, Over: 5, Face: grid.ZMin, Field: schedule.BCMu,
			Kind: grid.BCDirichlet, From: []float64{0, 0}, To: []float64{0.3, -0.1}},
		schedule.SetBC{Step: 2, Face: grid.ZMax, Field: schedule.BCPhi,
			Kind: grid.BCDirichlet, To: []float64{0, 0, 0, 1}})

	full := mkSim(t, 2, 1, 1, 6, 12, 14, OverlapMu)
	if err := full.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	if err := full.RunSchedule(n, sched, ScheduleHooks{}); err != nil {
		t.Fatal(err)
	}

	pre := mkSim(t, 2, 1, 1, 6, 12, 14, OverlapMu)
	if err := pre.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	if err := pre.RunSchedule(k, sched, ScheduleHooks{}); err != nil {
		t.Fatal(err)
	}
	pre.Sync()
	fields := make([]*kernels.Fields, pre.NumRanks())
	for r := range fields {
		fields[r] = pre.RankFields(r).Clone()
	}

	restart := mkSim(t, 2, 1, 1, 6, 12, 14, OverlapMu)
	// Mirror the checkpoint-restore order: BC state first, so the ghost
	// rebuild in RestoreState already uses the mid-ramp wall values.
	phiBCs, muBCs := pre.DomainBCs()
	if err := restart.SetDomainBCs(phiBCs, muBCs); err != nil {
		t.Fatal(err)
	}
	if err := restart.RestoreState(pre.StepCount(), pre.Time(), pre.WindowShift(), fields); err != nil {
		t.Fatal(err)
	}
	restart.Cfg.Params.Dt = pre.Cfg.Params.Dt
	restart.Cfg.Params.Temp = pre.Cfg.Params.Temp
	if err := restart.RunSchedule(n-k, sched, ScheduleHooks{}); err != nil {
		t.Fatal(err)
	}

	if ok, maxd := full.GatherGlobalPhi().InteriorEqual(restart.GatherGlobalPhi(), 0); !ok {
		t.Errorf("φ diverged %g across mid-BC-ramp restart", maxd)
	}
	if ok, maxd := full.GatherGlobalMu().InteriorEqual(restart.GatherGlobalMu(), 0); !ok {
		t.Errorf("µ diverged %g across mid-BC-ramp restart", maxd)
	}
}

// SetBC changing a single face of a comm-periodic decomposed axis leaves
// the axis mixed-periodic (µ still wraps while φ wants a wall) — rejected,
// not silently ignored. Complete flips are legal; see bctopology_test.go.
func TestSetBCRejectsPeriodicAxisFace(t *testing.T) {
	s := mkSim(t, 2, 1, 1, 6, 8, 10, OverlapNone)
	if err := s.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	sched := mkSched(t, schedule.SetBC{Step: 0, Face: grid.XMin, Field: schedule.BCMu, Kind: grid.BCNeumann})
	if err := s.RunSchedule(1, sched, ScheduleHooks{}); err == nil {
		t.Error("setbc on a comm-periodic axis accepted")
	}
}

// A later SetBC legally overriding an earlier settled one: only the latest
// due event per (face, field) applies each step, so the wall ends in the
// override's state and stays there (no per-step kind flapping between the
// two prescriptions).
func TestSetBCLaterEventOverridesSettledOne(t *testing.T) {
	sched := mkSched(t,
		schedule.SetBC{Step: 1, Over: 3, Face: grid.ZMin, Field: schedule.BCMu,
			Kind: grid.BCDirichlet, From: []float64{0, 0}, To: []float64{0.2, -0.1}},
		schedule.SetBC{Step: 6, Face: grid.ZMin, Field: schedule.BCMu, Kind: grid.BCNeumann})
	s := mkSim(t, 1, 1, 1, 8, 8, 12, OverlapNone)
	if err := s.InitScenario(ScenarioInterface); err != nil {
		t.Fatal(err)
	}
	// After 5 steps the last BC application ran at step index 4 = Step+Over,
	// so the ramp has settled at To.
	if err := s.RunSchedule(5, sched, ScheduleHooks{}); err != nil {
		t.Fatal(err)
	}
	_, mu := s.DomainBCs()
	if mu[grid.ZMin].Kind != grid.BCDirichlet || mu[grid.ZMin].Values[0] != 0.2 {
		t.Fatalf("mid-run wall %+v, want settled Dirichlet ramp", mu[grid.ZMin])
	}
	if err := s.RunSchedule(5, sched, ScheduleHooks{}); err != nil {
		t.Fatal(err)
	}
	_, mu = s.DomainBCs()
	if mu[grid.ZMin].Kind != grid.BCNeumann {
		t.Fatalf("override did not take: %+v", mu[grid.ZMin])
	}
	if s.HasNaN() {
		t.Error("NaN after BC override")
	}
}

// An impossible setbc face must abort before any step runs, not at the
// event's fire step deep into a production run.
func TestSetBCPeriodicAxisFailsFast(t *testing.T) {
	s := mkSim(t, 2, 1, 1, 6, 8, 10, OverlapNone)
	if err := s.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	sched := mkSched(t, schedule.SetBC{Step: 5000, Face: grid.XMin, Field: schedule.BCMu, Kind: grid.BCNeumann})
	if err := s.RunSchedule(1, sched, ScheduleHooks{}); err == nil {
		t.Error("far-future setbc on a comm-periodic axis not rejected at entry")
	}
	if s.StepCount() != 0 {
		t.Errorf("ran %d steps before rejecting", s.StepCount())
	}
}

// Both overlap modes must produce bit-identical physics even while a SetBC
// ramp is rewriting wall values between steps: the step-start re-fill pins
// the wall state every sweep sees, regardless of when each mode exchanges
// ghosts.
func TestOverlapModesEquivalentUnderSetBC(t *testing.T) {
	sched := func() *schedule.Schedule {
		return mkSched(t,
			schedule.SetBC{Step: 1, Over: 6, Face: grid.ZMin, Field: schedule.BCMu,
				Kind: grid.BCDirichlet, From: []float64{0, 0}, To: []float64{0.4, -0.2}},
			schedule.SetBC{Step: 3, Face: grid.ZMax, Field: schedule.BCPhi,
				Kind: grid.BCDirichlet, To: []float64{0, 0, 0, 1}})
	}
	run := func(mode OverlapMode) *Sim {
		s := mkSim(t, 2, 2, 1, 5, 5, 14, mode)
		if err := s.InitScenario(ScenarioInterface); err != nil {
			t.Fatal(err)
		}
		if err := s.RunSchedule(8, sched(), ScheduleHooks{}); err != nil {
			t.Fatal(err)
		}
		s.Sync()
		return s
	}
	ref := run(OverlapNone)
	refPhi, refMu := ref.GatherGlobalPhi(), ref.GatherGlobalMu()
	s := run(OverlapMu)
	if ok, maxd := s.GatherGlobalPhi().InteriorEqual(refPhi, 0); !ok {
		t.Errorf("%v: φ differs by %g under BC ramp", OverlapMu, maxd)
	}
	if ok, maxd := s.GatherGlobalMu().InteriorEqual(refMu, 0); !ok {
		t.Errorf("%v: µ differs by %g under BC ramp", OverlapMu, maxd)
	}
}

// A scheduled periodic wall on one field of a decomposed axis leaves the
// axis mixed-periodic (the comm-layer wrap is shared by both fields) —
// reject it instead of silently copying the midplane into the wall. On an
// undecomposed, non-periodic axis the per-field block-local wrap is valid.
func TestSetBCRejectsPeriodicKindOnDecomposedAxis(t *testing.T) {
	s := mkSim(t, 1, 1, 2, 8, 8, 6, OverlapNone)
	if err := s.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	sched := mkSched(t, schedule.SetBC{Step: 0, Face: grid.ZMin, Field: schedule.BCMu, Kind: grid.BCPeriodic})
	if err := s.RunSchedule(1, sched, ScheduleHooks{}); err == nil {
		t.Error("periodic wall on a z-decomposed axis accepted")
	}
	// On an undecomposed axis the block-local wrap is valid.
	ok := mkSim(t, 2, 1, 1, 6, 8, 10, OverlapNone)
	if err := ok.InitScenario(ScenarioLiquid); err != nil {
		t.Fatal(err)
	}
	okSched := mkSched(t,
		schedule.SetBC{Step: 0, Face: grid.ZMin, Field: schedule.BCMu, Kind: grid.BCPeriodic},
		schedule.SetBC{Step: 0, Face: grid.ZMax, Field: schedule.BCMu, Kind: grid.BCPeriodic})
	if err := ok.RunSchedule(1, okSched, ScheduleHooks{}); err != nil {
		t.Errorf("periodic wall on an undecomposed axis rejected: %v", err)
	}
}
