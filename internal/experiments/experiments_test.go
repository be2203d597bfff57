package experiments

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/solver"
)

// Small-block smoke and shape tests; the cmd/benchfig tool runs the
// paper-sized versions.

func TestFig6Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig6(&buf, 12, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"general purpose code", "with shortcuts", "speedup over general-purpose code"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 output missing %q", want)
		}
	}
}

func TestFig7Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7(&buf, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "block 40^3") || !strings.Contains(buf.String(), "block 20^3") {
		t.Error("Fig7 output missing block sizes")
	}
}

func TestFig8Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8(&buf, 12, 2, 4, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SuperMUC model") {
		t.Error("Fig8 output missing model block")
	}
}

func TestParallelScalingRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := ParallelScaling(&buf, 16, 2, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "workers") || !strings.Contains(out, "speedup") {
		t.Error("ParallelScaling output missing table header")
	}
}

func TestFig9Shape(t *testing.T) {
	var buf bytes.Buffer
	Fig9(&buf)
	out := buf.String()
	for _, want := range []string{"SuperMUC", "Hornet", "JUQUEEN", "parallel efficiency"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig9 output missing %q", want)
		}
	}
}

func TestRooflineRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := Roofline(&buf, 12, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"126.3", "1384", "27%", "43%"} {
		if !strings.Contains(out, want) {
			t.Errorf("roofline output missing %q", want)
		}
	}
}

// The production kernels must beat the general-purpose emulation. The two
// variants are timed back to back, in alternating order and each after a
// collection, in each of several rounds, and the verdict is the median of
// the per-round speedups: a burst of load from test packages running
// alongside can spoil a round but not the verdict. Timed once each, one
// after the other, such a burst flipped it.
func TestLadderSpeedupDirection(t *testing.T) {
	const edge, steps, rounds = 16, 2, 9
	for _, k := range []struct {
		name    string
		measure func(kernels.Variant, solver.Scenario, int, int) (float64, error)
	}{{"mu", MeasureMuVariant}, {"phi", MeasurePhiVariant}} {
		speedups := make([]float64, rounds)
		for r := range speedups {
			var rate [2]float64 // indexed like kernels.Variants
			for i := range rate {
				v := (i + r) % 2
				runtime.GC()
				var err error
				if rate[v], err = k.measure(kernels.Variants[v], solver.ScenarioInterface, edge, steps); err != nil {
					t.Fatal(err)
				}
			}
			speedups[r] = rate[1] / rate[0]
		}
		slices.Sort(speedups)
		if med := speedups[rounds/2]; med <= 1 {
			t.Errorf("optimized %s-kernel not faster than general code: median speedup %.2f (rounds %.2f)",
				k.name, med, speedups)
		}
	}
}

// Shortcut kernels must be faster in bulk-dominated compositions than at
// the interface (the Fig. 6 scenario spread). φ only has to beat the
// interface; µ's liquid-bulk rows must run at least 3× the interface rate
// (~10× measured; without the bulk path it was ~1.7×). The two scenarios
// are timed alternately, each after a collection, and the µ verdict is the
// median over rounds, as in TestLadderSpeedupDirection.
func TestShortcutScenarioSpread(t *testing.T) {
	const edge, steps, rounds = 16, 3, 7
	iface, err := MeasurePhiVariant(kernels.VarShortcut, solver.ScenarioInterface, edge, steps)
	if err != nil {
		t.Fatal(err)
	}
	liquid, err := MeasurePhiVariant(kernels.VarShortcut, solver.ScenarioLiquid, edge, steps)
	if err != nil {
		t.Fatal(err)
	}
	if liquid <= iface {
		t.Errorf("phi shortcuts: liquid (%.2f) should beat interface (%.2f)", liquid, iface)
	}

	scenarios := [2]solver.Scenario{solver.ScenarioInterface, solver.ScenarioLiquid}
	ratios := make([]float64, rounds)
	for r := range ratios {
		var rate [2]float64 // indexed like scenarios
		for i := range rate {
			s := (i + r) % 2
			runtime.GC()
			if rate[s], err = MeasureMuVariant(kernels.VarShortcut, scenarios[s], edge, steps); err != nil {
				t.Fatal(err)
			}
		}
		ratios[r] = rate[1] / rate[0]
	}
	slices.Sort(ratios)
	if med := ratios[rounds/2]; med < 3 {
		t.Errorf("mu shortcuts: liquid/interface median %.2f, want ≥ 3 (rounds %.2f)", med, ratios)
	}
}
