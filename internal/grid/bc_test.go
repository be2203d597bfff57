package grid

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// fillPattern writes a unique value into every interior cell.
func fillPattern(f *Field) {
	f.Interior(func(x, y, z int) {
		for c := 0; c < f.NComp; c++ {
			f.Set(c, x, y, z, float64(c*1000000+(z+1)*10000+(y+1)*100+(x+1)))
		}
	})
}

func TestFaceOpposite(t *testing.T) {
	for f := Face(0); f < NumFaces; f++ {
		if f.Opposite().Opposite() != f {
			t.Errorf("Opposite not involutive for %v", f)
		}
		if f.Opposite().Axis() != f.Axis() {
			t.Errorf("Opposite changes axis for %v", f)
		}
		if f.IsMin() == f.Opposite().IsMin() {
			t.Errorf("Opposite keeps IsMin for %v", f)
		}
	}
}

func TestFaceStrings(t *testing.T) {
	want := []string{"x-", "x+", "y-", "y+", "z-", "z+"}
	for f := Face(0); f < NumFaces; f++ {
		if f.String() != want[f] {
			t.Errorf("Face(%d).String() = %q, want %q", f, f.String(), want[f])
		}
	}
}

func TestPeriodicGhosts(t *testing.T) {
	f := NewField(4, 4, 4, 1, 1, SoA)
	fillPattern(f)
	bs := AllPeriodic()
	bs.Apply(f)

	// Ghost at x=-1 equals interior at x=NX-1.
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			if f.At(0, -1, y, z) != f.At(0, 3, y, z) {
				t.Fatalf("x- ghost wrong at y=%d z=%d", y, z)
			}
			if f.At(0, 4, y, z) != f.At(0, 0, y, z) {
				t.Fatalf("x+ ghost wrong at y=%d z=%d", y, z)
			}
		}
	}
	// Corner ghost (-1,-1,-1) equals interior (3,3,3) thanks to the staged fill.
	if f.At(0, -1, -1, -1) != f.At(0, 3, 3, 3) {
		t.Errorf("corner ghost = %v, want %v", f.At(0, -1, -1, -1), f.At(0, 3, 3, 3))
	}
	// Edge ghost (-1, 2, 4) equals (3, 2, 0).
	if f.At(0, -1, 2, 4) != f.At(0, 3, 2, 0) {
		t.Errorf("edge ghost wrong")
	}
}

func TestNeumannGhosts(t *testing.T) {
	f := NewField(3, 3, 3, 2, 1, SoA)
	fillPattern(f)
	bs := AllNeumann()
	bs.Apply(f)
	for c := 0; c < 2; c++ {
		for z := 0; z < 3; z++ {
			for y := 0; y < 3; y++ {
				if f.At(c, -1, y, z) != f.At(c, 0, y, z) {
					t.Fatalf("x- neumann wrong c=%d", c)
				}
				if f.At(c, 3, y, z) != f.At(c, 2, y, z) {
					t.Fatalf("x+ neumann wrong c=%d", c)
				}
			}
		}
	}
	// Zero gradient across every face means corner mirrors interior corner.
	if f.At(0, -1, -1, -1) != f.At(0, 0, 0, 0) {
		t.Error("corner neumann wrong")
	}
}

func TestDirichletGhosts(t *testing.T) {
	f := NewField(3, 3, 3, 2, 1, SoA)
	f.Fill(0)
	f.Interior(func(x, y, z int) {
		f.Set(0, x, y, z, 4)
		f.Set(1, x, y, z, 8)
	})
	var bs BoundarySet
	bs[ZMin] = BC{Kind: BCDirichlet, Values: []float64{1, 2}}
	bs.Apply(f)
	// Ghost cells carry the prescribed values directly.
	if got := f.At(0, 1, 1, -1); got != 1 {
		t.Errorf("dirichlet comp0 ghost = %v, want 1", got)
	}
	if got := f.At(1, 1, 1, -1); got != 2 {
		t.Errorf("dirichlet comp1 ghost = %v, want 2", got)
	}
}

func TestDirectionalSolidificationSet(t *testing.T) {
	bs := DirectionalSolidification([]float64{1, 0})
	if bs[XMin].Kind != BCPeriodic || bs[YMax].Kind != BCPeriodic {
		t.Error("lateral faces should be periodic")
	}
	if bs[ZMin].Kind != BCDirichlet {
		t.Error("bottom should be dirichlet")
	}
	if bs[ZMax].Kind != BCNeumann {
		t.Error("top should be neumann")
	}
}

// Property: applying periodic BCs twice is idempotent on ghosts.
func TestPeriodicIdempotent(t *testing.T) {
	f := func(seed uint8) bool {
		fl := NewField(3, 4, 2, 1, 1, SoA)
		v := float64(seed)
		fl.Interior(func(x, y, z int) {
			v = v*1.7 + 0.3
			fl.Set(0, x, y, z, v)
		})
		bs := AllPeriodic()
		bs.Apply(fl)
		snap := fl.Clone()
		bs.Apply(fl)
		for i := range fl.Data {
			if fl.Data[i] != snap.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBCKindString(t *testing.T) {
	names := map[BCKind]string{BCNone: "none", BCPeriodic: "periodic", BCNeumann: "neumann", BCDirichlet: "dirichlet"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v", k)
		}
	}
}

func TestSetFaceReusesBacking(t *testing.T) {
	var b BoundarySet
	if realloc := b.SetFace(ZMin, BCDirichlet, []float64{1, 2, 3, 4}); !realloc {
		t.Error("first install should report a fresh backing array")
	}
	derived := b // simulates a rank's BlockBCs copy: shares Values backing
	if realloc := b.SetFace(ZMin, BCDirichlet, []float64{5, 6, 7, 8}); realloc {
		t.Error("same-arity update should reuse the backing array")
	}
	// The in-place update must be visible through the derived copy.
	for i, want := range []float64{5, 6, 7, 8} {
		if derived[ZMin].Values[i] != want {
			t.Fatalf("derived copy saw stale value %g at %d", derived[ZMin].Values[i], i)
		}
	}
	// Kind-only changes leave Values untouched.
	if realloc := b.SetFace(ZMin, BCNeumann, nil); realloc {
		t.Error("kind-only change reported a realloc")
	}
	if b[ZMin].Kind != BCNeumann {
		t.Error("kind not installed")
	}
}

func TestBoundarySetClone(t *testing.T) {
	b := DirectionalSolidification([]float64{1, 0, 0, 0})
	c := b.Clone()
	c[ZMin].Values[0] = 42
	if b[ZMin].Values[0] != 1 {
		t.Error("Clone shares the Values backing")
	}
	if c[ZMax].Kind != BCNeumann || c[XMin].Kind != BCPeriodic {
		t.Error("Clone dropped kinds")
	}
}

func TestBoundarySetValidate(t *testing.T) {
	b := DirectionalSolidification([]float64{1, 0, 0, 0})
	if err := b.Validate(4); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := b.Validate(2); err == nil {
		t.Error("arity mismatch accepted")
	}
	var none BoundarySet
	if err := none.Validate(4); err != nil {
		t.Errorf("all-none set rejected: %v", err)
	}
}

// sentinel marks a cell no fill should have written.
const sentinel = -7.5

// sentinelField returns an nx×ny×nz two-component field with ghost width
// g: the fillPattern interior, every ghost at sentinel.
func sentinelField(nx, ny, nz, g int) *Field {
	f := NewField(nx, ny, nz, 2, g, SoA)
	f.Fill(sentinel)
	fillPattern(f)
	return f
}

// requireSameCells compares every cell, ghosts included, bit for bit.
func requireSameCells(t *testing.T, name string, got, want *Field) {
	t.Helper()
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: cell %d holds %v, want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// The x-face fill against a per-cell reference: every kind, ghost widths
// 1 and 2, the low face, the high face and both, and nothing written
// outside the x ghosts of interior rows.
func TestApplyXMatchesPerCellReference(t *testing.T) {
	for _, kind := range []BCKind{BCPeriodic, BCNeumann, BCDirichlet} {
		for _, g := range []int{1, 2} {
			for _, sides := range [][2]bool{{true, false}, {false, true}, {true, true}} {
				f := sentinelField(5, 3, 4, g)
				var bs BoundarySet
				bs[XMin] = BC{Kind: kind, Values: []float64{11, 12}}
				bs[XMax] = BC{Kind: kind, Values: []float64{21, 22}}
				want := f.Clone()
				n := f.NX
				for c := 0; c < f.NComp; c++ {
					for z := 0; z < f.NZ; z++ {
						for y := 0; y < f.NY; y++ {
							for d := 1; d <= g; d++ {
								lo, hi := f.At(c, d-1, y, z), f.At(c, n-d, y, z) // Neumann mirrors
								switch kind {
								case BCPeriodic:
									lo, hi = f.At(c, n-d, y, z), f.At(c, d-1, y, z)
								case BCDirichlet:
									lo, hi = bs[XMin].Values[c], bs[XMax].Values[c]
								}
								if sides[0] {
									want.Set(c, -d, y, z, lo)
								}
								if sides[1] {
									want.Set(c, n-1+d, y, z, hi)
								}
							}
						}
					}
				}
				bs.ApplyAxis(f, 0, sides[0], sides[1], nil)
				requireSameCells(t, fmt.Sprintf("%v G=%d faces=%v", kind, g, sides), f, want)
			}
		}
	}
}

// The keep mask: a kept slice's x/y ghosts are left untouched, and every
// other slice, and both z faces, are filled exactly as Apply fills them.
// The z faces copy the outer G slices, which are not kept here.
func TestApplyAxisKeepMask(t *testing.T) {
	for _, g := range []int{1, 2} {
		bs := AllPeriodic()
		bs[YMin] = BC{Kind: BCNeumann}
		bs[YMax] = BC{Kind: BCDirichlet, Values: []float64{3, 4}}
		keep := []bool{false, false, true, true, false, true, false, false}
		f := sentinelField(4, 3, len(keep), g)
		full := f.Clone()
		bs.Apply(full)
		for axis := 0; axis < 3; axis++ {
			bs.ApplyAxis(f, axis, true, true, keep)
		}
		for c := 0; c < f.NComp; c++ {
			for z := -g; z < f.NZ+g; z++ {
				for y := -g; y < f.NY+g; y++ {
					for x := -g; x < f.NX+g; x++ {
						got, want := f.At(c, x, y, z), full.At(c, x, y, z)
						ring := x < 0 || x >= f.NX || y < 0 || y >= f.NY
						if z >= 0 && z < f.NZ && keep[z] && ring {
							want = sentinel
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("G=%d comp %d cell (%d,%d,%d): %v, want %v", g, c, x, y, z, got, want)
						}
					}
				}
			}
		}
	}
}
