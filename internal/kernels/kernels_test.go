package kernels

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// testBCs returns the single-block boundary set used by kernel tests:
// periodic laterally, Neumann top/bottom.
func testBCs() grid.BoundarySet {
	bs := grid.AllPeriodic()
	bs[grid.ZMin] = grid.BC{Kind: grid.BCNeumann}
	bs[grid.ZMax] = grid.BC{Kind: grid.BCNeumann}
	return bs
}

// setupInterface builds a block containing a diffuse solidification front:
// three solid lamellae below, liquid above, with a tanh profile across the
// front and a small µ perturbation.
func setupInterface(nx, ny, nz int, p *core.Params) *Fields {
	f := NewFields(nx, ny, nz)
	front := float64(nz) / 2
	stripe := nx / 3
	if stripe < 1 {
		stripe = 1
	}
	f.PhiSrc.Interior(func(x, y, z int) {
		l := 0.5 * (1 + math.Tanh((float64(z)-front)/(0.25*p.Eps)))
		solid := (x / stripe) % 3
		var phi [NP]float64
		phi[LQ] = l
		phi[solid] = 1 - l
		core.ProjectSimplex(&phi)
		for a := 0; a < NP; a++ {
			f.PhiSrc.Set(a, x, y, z, phi[a])
		}
		f.MuSrc.Set(0, x, y, z, 0.01*math.Sin(2*math.Pi*float64(x)/float64(nx)))
		f.MuSrc.Set(1, x, y, z, 0.01*math.Cos(2*math.Pi*float64(y)/float64(ny)))
	})
	bs := testBCs()
	bs.Apply(f.PhiSrc)
	bs.Apply(f.MuSrc)
	f.PhiDst.CopyFrom(f.PhiSrc)
	f.MuDst.CopyFrom(f.MuSrc)
	return f
}

// setupBulk builds a block uniformly filled with one phase.
func setupBulk(nx, ny, nz, phase int) *Fields {
	f := NewFields(nx, ny, nz)
	f.PhiSrc.FillComp(phase, 1)
	bs := testBCs()
	bs.Apply(f.PhiSrc)
	bs.Apply(f.MuSrc)
	f.PhiDst.CopyFrom(f.PhiSrc)
	f.MuDst.CopyFrom(f.MuSrc)
	return f
}

func testParams(nz int) *core.Params {
	p := core.DefaultParams()
	p.Temp.Z0 = float64(nz) / 2 * p.Dx // eutectic isotherm at the front
	return p
}

func TestPhiVariantsEquivalent(t *testing.T) {
	const nx, ny, nz = 12, 8, 16
	p := testParams(nz)
	ctx := &Ctx{P: p}

	ref := setupInterface(nx, ny, nz, p)
	sc := NewScratch(nx, ny)
	PhiSweep(ctx, ref, sc, VarShortcut)

	f := setupInterface(nx, ny, nz, p)
	PhiSweep(ctx, f, NewScratch(nx, ny), VarGeneral)
	ok, maxd := f.PhiDst.InteriorEqual(ref.PhiDst, 1e-8)
	if !ok {
		t.Errorf("general: φ differs from production by %g", maxd)
	}
}

func TestMuVariantsEquivalent(t *testing.T) {
	const ny, nz = 8, 16
	p := testParams(nz)
	ctx := &Ctx{P: p}

	// Narrow and wide blocks, at every width mod 4.
	for _, nx := range []int{1, 3, 4, 7, 10, 12} {
		// Produce a common φ(t+Δt) first so ∂φ/∂t is nontrivial.
		mk := func() *Fields {
			f := setupInterface(nx, ny, nz, p)
			PhiSweep(ctx, f, NewScratch(nx, ny), VarShortcut)
			testBCsApply(f.PhiDst)
			return f
		}

		ref := mk()
		MuSweep(ctx, ref, NewScratch(nx, ny), VarShortcut)
		f := mk()
		MuSweep(ctx, f, NewScratch(nx, ny), VarGeneral)
		// The production kernel replaces the exact inverse square root
		// in the anti-trapping normalization with the refined Lomont
		// approximation (~1e-6 relative); the general code uses exact
		// sqrt, hence the tolerance.
		if ok, maxd := f.MuDst.InteriorEqual(ref.MuDst, 5e-6); !ok {
			t.Errorf("nx=%d general: µ differs from production by %g", nx, maxd)
		}
	}
}

func testBCsApply(f *grid.Field) {
	bs := testBCs()
	bs.Apply(f)
}

func TestBulkPhaseFieldUnchanged(t *testing.T) {
	const n = 8
	p := testParams(n)
	ctx := &Ctx{P: p}
	for phase := 0; phase < NP; phase++ {
		for _, v := range Variants {
			f := setupBulk(n, n, n, phase)
			PhiSweep(ctx, f, NewScratch(n, n), v)
			f.PhiDst.Interior(func(x, y, z int) {
				for a := 0; a < NP; a++ {
					want := 0.0
					if a == phase {
						want = 1
					}
					if got := f.PhiDst.At(a, x, y, z); math.Abs(got-want) > 1e-12 {
						t.Fatalf("%v phase %d: φ[%d]=%g at (%d,%d,%d)", v, phase, a, got, x, y, z)
					}
				}
			})
		}
	}
}

func TestBulkLiquidMuUniformPerSlice(t *testing.T) {
	// In bulk liquid the µ field must stay bitwise uniform within each
	// z-slice (the only driver is the slice-constant ∂T/∂t term): the
	// activity tracker's sleep rule broadcasts one proxy value per slice.
	for _, n := range []int{8, 7} {
		p := testParams(n)
		ctx := &Ctx{P: p}
		f := setupBulk(n, n, n, LQ)
		PhiSweep(ctx, f, NewScratch(n, n), VarShortcut)
		testBCsApply(f.PhiDst)
		MuSweep(ctx, f, NewScratch(n, n), VarShortcut)
		for z := 0; z < n; z++ {
			for k := 0; k < NR; k++ {
				want := math.Float64bits(f.MuDst.At(k, 0, 0, z))
				for y := 0; y < n; y++ {
					for x := 0; x < n; x++ {
						if got := math.Float64bits(f.MuDst.At(k, x, y, z)); got != want {
							t.Fatalf("n=%d: µ[%d] not uniform in slice %d at (%d,%d)", n, k, z, x, y)
						}
					}
				}
			}
		}
		// And it must actually move with temperature (∂c/∂T ≠ 0 in liquid).
		if f.MuDst.At(0, 0, 0, 0) == f.MuSrc.At(0, 0, 0, 0) && p.Temp.DTdt() != 0 {
			t.Errorf("n=%d: µ did not respond to the frozen-gradient temperature drift", n)
		}
	}
}

func TestMuPureDiffusionConservesAndDecays(t *testing.T) {
	// Uniform liquid, no temperature drift, no anti-trapping: the µ
	// equation reduces to pure diffusion. Σµ is conserved (telescoping
	// divergence over the periodic/Neumann domain with zero boundary
	// flux) and the perturbation decays.
	const n = 10
	p := testParams(n)
	p.Temp.G = 0 // no gradient: no ∂T/∂t source
	ctx := &Ctx{P: p}
	f := setupBulk(n, n, n, LQ)
	f.MuSrc.Interior(func(x, y, z int) {
		f.MuSrc.Set(0, x, y, z, 0.05*math.Sin(2*math.Pi*float64(x)/n)*math.Cos(2*math.Pi*float64(y)/n))
	})
	bs := grid.AllPeriodic()
	bs.Apply(f.MuSrc)
	f.PhiDst.CopyFrom(f.PhiSrc)

	sum0, amp0 := muSumAmp(f.MuSrc)
	sc := NewScratch(n, n)
	for step := 0; step < 10; step++ {
		MuSweep(ctx, f, sc, VarShortcut)
		bs.Apply(f.MuDst)
		f.MuSrc.Swap(f.MuDst)
	}
	sum1, amp1 := muSumAmp(f.MuSrc)
	if math.Abs(sum1-sum0) > 1e-10 {
		t.Errorf("Σµ drifted: %g -> %g", sum0, sum1)
	}
	if amp1 >= amp0 {
		t.Errorf("perturbation did not decay: %g -> %g", amp0, amp1)
	}
}

func muSumAmp(f *grid.Field) (sum, amp float64) {
	f.Interior(func(x, y, z int) {
		v := f.At(0, x, y, z)
		sum += v
		if math.Abs(v) > amp {
			amp = math.Abs(v)
		}
	})
	return
}

func TestSweepsProduceFiniteValues(t *testing.T) {
	const nx, ny, nz = 12, 8, 16
	p := testParams(nz)
	ctx := &Ctx{P: p}
	f := setupInterface(nx, ny, nz, p)
	sc := NewScratch(nx, ny)
	bs := testBCs()
	for step := 0; step < 5; step++ {
		ctx.Time = float64(step) * p.Dt
		PhiSweep(ctx, f, sc, VarShortcut)
		bs.Apply(f.PhiDst)
		MuSweep(ctx, f, sc, VarShortcut)
		bs.Apply(f.MuDst)
		f.Swap()
	}
	if f.PhiSrc.HasNaN() || f.MuSrc.HasNaN() {
		t.Fatal("NaN/Inf after 5 steps")
	}
	// φ stays on the simplex everywhere.
	f.PhiSrc.Interior(func(x, y, z int) {
		var phi [NP]float64
		loadPhi(f.PhiSrc, x, y, z, &phi)
		if !core.OnSimplex(&phi, 1e-9) {
			t.Fatalf("φ off simplex at (%d,%d,%d): %v", x, y, z, phi)
		}
	})
}

func TestSolidGrowsBelowEutectic(t *testing.T) {
	// A single-solid front under strong undercooling: after an initial
	// profile-relaxation phase the solid fraction must increase.
	const nx, ny, nz = 8, 8, 16
	p := testParams(nz)
	p.Temp.Z0 = 2 * float64(nz) * p.Dx // whole domain well below T_E
	p.Temp.G = 0.005
	ctx := &Ctx{P: p}

	f := NewFields(nx, ny, nz)
	front := float64(nz) / 2
	f.PhiSrc.Interior(func(x, y, z int) {
		l := 0.5 * (1 + math.Tanh((float64(z)-front)/(0.25*p.Eps)))
		f.PhiSrc.Set(0, x, y, z, 1-l)
		f.PhiSrc.Set(LQ, x, y, z, l)
	})
	bs := testBCs()
	bs.Apply(f.PhiSrc)
	bs.Apply(f.MuSrc)
	f.PhiDst.CopyFrom(f.PhiSrc)
	sc := NewScratch(nx, ny)

	solidFrac := func(fl *grid.Field) float64 {
		s := 0.0
		fl.Interior(func(x, y, z int) {
			for a := 0; a < NP-1; a++ {
				s += fl.At(a, x, y, z)
			}
		})
		return s / float64(fl.NumInterior())
	}
	step := func(n int) {
		for i := 0; i < n; i++ {
			PhiSweep(ctx, f, sc, VarShortcut)
			bs.Apply(f.PhiDst)
			MuSweep(ctx, f, sc, VarShortcut)
			bs.Apply(f.MuDst)
			f.Swap()
			ctx.Time += p.Dt
		}
	}
	step(20) // let the tanh profile relax to the model's own shape
	f0 := solidFrac(f.PhiSrc)
	step(60)
	f1 := solidFrac(f.PhiSrc)
	if f1 <= f0 {
		t.Errorf("solid fraction did not grow below T_E: %g -> %g", f0, f1)
	}
	if f.PhiSrc.HasNaN() || f.MuSrc.HasNaN() {
		t.Fatal("NaN during growth test")
	}
}

func TestVariantStrings(t *testing.T) {
	if VarGeneral.String() != "general purpose code" || VarShortcut.String() != "with shortcuts" {
		t.Error("variant names wrong")
	}
	if Variant(3).String() != "Variant(3)" {
		t.Error("retired id not rendered as a bare number")
	}
}

func TestScratchEnsureGrows(t *testing.T) {
	sc := NewScratch(4, 4)
	sc.ensure(8, 2)
	if sc.nx < 8 || sc.ny < 4 {
		t.Errorf("ensure did not grow: %d %d", sc.nx, sc.ny)
	}
	if len(sc.muZ) < 8*4*NR || len(sc.phZ) < 8*4*NP {
		t.Error("slab buffers too small after ensure")
	}
}

func TestTempSliceTablesMatchThermo(t *testing.T) {
	p := testParams(16)
	var ts TempSlice
	ts.Fill(p, 10, 3.5)
	mu := [NR]float64{0.2, -0.1}
	pots := grandPots(&ts, mu[0], mu[1])
	dT := ts.T - p.Sys.TE
	for a, got := range [NP]float64{pots.a0, pots.a1, pots.a2, pots.a3} {
		want := p.Sys.Phases[a].GrandPot(mu, dT)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("table ω[%d]=%g, thermo %g", a, got, want)
		}
		cw := p.Sys.Phases[a].Conc(mu, dT)
		for k := 0; k < NR; k++ {
			if cg := mu[k]*ts.InvTwoA[k][a] + ts.C0T[k][a]; math.Abs(cg-cw[k]) > 1e-12 {
				t.Errorf("table c[%d][%d]=%g, thermo %g", a, k, cg, cw[k])
			}
		}
	}
}
