package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// The µ liquid-bulk row path must be invisible: VarShortcut ≡ the
// no-shortcut reference (the production µ sweep with its shortcut flag
// off) bit for bit, including the sign of zero, on
// fields that put exact-liquid rows beside interface rows and beside
// decoys that must not take the bulk path. The subnormal and 1−2⁻⁵³ decoys
// round away in the interpolation (the general path returns the bulk bits
// for them too), so the exact predicate is merely conservative there; the
// 1e-6 solid shifts the face mobility and only the general path gets it
// right.

// Row kinds of the mixed fields.
const (
	rowLiquid    = iota // exactly (0,0,0,1)
	rowNegZero          // liquid with −0 solid fractions: still bulk
	rowInterface        // diffuse, every cell non-liquid
	rowSubnormal        // one solid fraction at the smallest subnormal
	rowNearOne          // one liquid fraction at 1−2⁻⁵³
	rowTinySolid        // one cell at solid 1e-6: moves the mobility sum
	rowDst              // liquid in φsrc, one cell off the vertex in φdst
	numRowKinds
)

// setRowPhi writes row (y, z) of φsrc and φdst for the given kind; xd is
// the decoy cell.
func setRowPhi(f *Fields, kind, y, z, xd int, rng *rand.Rand) {
	nx := f.PhiSrc.NX
	for x := 0; x < nx; x++ {
		phi := [NP]float64{0, 0, 0, 1}
		switch kind {
		case rowNegZero:
			phi = [NP]float64{math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1), 1}
		case rowInterface:
			l := 0.2 + 0.6*rng.Float64()
			phi = [NP]float64{}
			phi[LQ] = l
			phi[rng.Intn(LQ)] = 1 - l
		case rowSubnormal:
			if x == xd {
				phi[rng.Intn(LQ)] = math.SmallestNonzeroFloat64
			}
		case rowNearOne:
			if x == xd {
				phi[LQ] = 1 - 0x1p-53
			}
		case rowTinySolid:
			if x == xd {
				phi = [NP]float64{1e-6, 0, 0, 1 - 1e-6}
			}
		}
		for a := 0; a < NP; a++ {
			f.PhiSrc.Set(a, x, y, z, phi[a])
			f.PhiDst.Set(a, x, y, z, phi[a])
		}
		switch {
		case kind == rowInterface:
			// A moving interface, so ∂φ/∂t and the anti-trapping
			// current are nontrivial.
			f.PhiDst.Set(LQ, x, y, z, phi[LQ]+0.01)
		case kind == rowDst && x == xd:
			f.PhiDst.Set(LQ, x, y, z, 0.97)
			f.PhiDst.Set(0, x, y, z, 0.03)
		}
	}
}

// mixedRowsField builds an nx×ny×nz block whose (y, z) rows have the given
// kinds, random µ, and the lateral-periodic / Neumann-z ghost layers of
// the kernel tests. ghost, when set, then overwrites one x ghost cell of
// φsrc (after the boundary update, as a neighbour block's halo could).
func mixedRowsField(nx, ny, nz int, kind func(y, z int) int, rng *rand.Rand) *Fields {
	f := NewFields(nx, ny, nz)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			setRowPhi(f, kind(y, z), y, z, rng.Intn(nx), rng)
		}
	}
	f.MuSrc.Interior(func(x, y, z int) {
		f.MuSrc.Set(0, x, y, z, 0.05*(2*rng.Float64()-1))
		f.MuSrc.Set(1, x, y, z, 0.05*(2*rng.Float64()-1))
	})
	bs := testBCs()
	bs.Apply(f.PhiSrc)
	bs.Apply(f.PhiDst)
	bs.Apply(f.MuSrc)
	return f
}

// setGhostDecoy puts a non-liquid cell into the x ghost ring of φsrc.
func setGhostDecoy(f *Fields, x, y, z int) {
	f.PhiSrc.Set(LQ, x, y, z, 0.9)
	f.PhiSrc.Set(1, x, y, z, 0.1)
}

// sweepMu runs the production MuSweepRange over consecutive slabs split at
// cuts, one fresh Scratch per slab as the engine's workers have, on a
// clone.
func sweepMu(ctx *Ctx, f0 *Fields, cuts []int) *Fields {
	f := f0.Clone()
	z0 := 0
	for _, z1 := range append(cuts, f.MuSrc.NZ) {
		MuSweepRange(ctx, f, NewScratch(f.MuSrc.NX, f.MuSrc.NY), z0, z1)
		z0 = z1
	}
	return f
}

// bitsDiff returns the first interior cell where a and b differ in bits,
// or "" when they are identical.
func bitsDiff(a, b *grid.Field) string {
	for z := 0; z < a.NZ; z++ {
		for y := 0; y < a.NY; y++ {
			for x := 0; x < a.NX; x++ {
				for c := 0; c < a.NComp; c++ {
					va, vb := a.At(c, x, y, z), b.At(c, x, y, z)
					if math.Float64bits(va) != math.Float64bits(vb) {
						return fmt.Sprintf("µ[%d] at (%d,%d,%d): %v vs %v", c, x, y, z, va, vb)
					}
				}
			}
		}
	}
	return ""
}

// checkShortcutBitwise compares VarShortcut, whole and split at cuts,
// against a whole no-shortcut reference sweep.
func checkShortcutBitwise(t *testing.T, p *core.Params, f *Fields, cuts []int) {
	t.Helper()
	ctx := &Ctx{P: p, Time: 3 * p.Dt}
	ref := f.Clone()
	muSweepProd(ctx, ref, NewScratch(f.MuSrc.NX, f.MuSrc.NY), false, 0, f.MuSrc.NZ)
	for _, c := range [][]int{nil, cuts} {
		got := sweepMu(ctx, f, c)
		if d := bitsDiff(got.MuDst, ref.MuDst); d != "" {
			t.Fatalf("nx=%d slabs cut at %v: shortcut differs from the reference: %s", f.MuSrc.NX, c, d)
		}
	}
}

func TestMuLiquidRowsBitwise(t *testing.T) {
	const ny, nz = 7, 16
	p := testParams(nz)
	// Interface rows lie along y = 0 in slices 2–3 and fill z ≥ 13; the
	// decoys each sit inside an otherwise liquid neighbourhood.
	kind := func(y, z int) int {
		switch {
		case z >= 13 || (y == 0 && (z == 2 || z == 3)):
			return rowInterface
		case z == 1:
			return rowNegZero
		case y == 3 && z == 2:
			return rowSubnormal
		case y == 5 && z == 5:
			return rowNearOne
		case y == 1 && z == 6:
			return rowDst
		case y == 3 && z == 10:
			return rowTinySolid
		}
		return rowLiquid
	}
	for _, nx := range []int{4, 5, 7, 12} {
		rng := rand.New(rand.NewSource(int64(nx)))
		f := mixedRowsField(nx, ny, nz, kind, rng)
		// A non-liquid cell only in a z±1 row of rows (3, 3) and (3, 5).
		f.PhiSrc.Set(LQ, nx/2, 3, 4, 0.8)
		f.PhiSrc.Set(2, nx/2, 3, 4, 0.2)
		// Non-liquid cells only in the x ghost ring.
		setGhostDecoy(f, -1, 4, 7)
		setGhostDecoy(f, nx, 2, 8)
		// Slab cuts that split the liquid region unevenly.
		checkShortcutBitwise(t, p, f, []int{1, 5, 6, 11})
	}
}

// FuzzMuShortcut checks VarShortcut ≡ the no-shortcut reference bitwise on
// seeded fields whose rows are randomly exact liquid, a decoy or interface,
// at fuzzed widths and slab splits.
func FuzzMuShortcut(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(5))
	f.Add(int64(2), uint8(1), uint8(0), uint8(0))
	f.Add(int64(3), uint8(6), uint8(2), uint8(9))
	f.Add(int64(4), uint8(9), uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, w, cut1, cut2 uint8) {
		const ny, nz = 6, 10
		nx := 1 + int(w)%13
		rng := rand.New(rand.NewSource(seed))
		kinds := make([]int, ny*nz)
		for i := range kinds {
			// Mostly liquid, so bulk rows occur beside every other kind.
			if k := rng.Intn(2 * numRowKinds); k < numRowKinds {
				kinds[i] = k
			}
		}
		fl := mixedRowsField(nx, ny, nz, func(y, z int) int { return kinds[z*ny+y] }, rng)
		if rng.Intn(2) == 0 {
			setGhostDecoy(fl, -1+(nx+1)*rng.Intn(2), rng.Intn(ny), rng.Intn(nz))
		}
		a, b := int(cut1)%(nz+1), int(cut2)%(nz+1)
		if a > b {
			a, b = b, a
		}
		checkShortcutBitwise(t, testParams(nz), fl, []int{a, b})
	})
}
