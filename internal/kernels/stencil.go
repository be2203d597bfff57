package kernels

import (
	"repro/internal/grid"
)

// Small stencil-access helpers shared by both kernel variants.

func loadPhi(f *grid.Field, x, y, z int, out *[NP]float64) {
	for a := 0; a < NP; a++ {
		out[a] = f.At(a, x, y, z)
	}
}

func loadMu(f *grid.Field, x, y, z int, out *[NR]float64) {
	for k := 0; k < NR; k++ {
		out[k] = f.At(k, x, y, z)
	}
}

func storePhi(f *grid.Field, x, y, z int, v *[NP]float64) {
	for a := 0; a < NP; a++ {
		f.Set(a, x, y, z, v[a])
	}
}

// axisOffsets returns the unit offset of the given axis.
func axisOffsets(axis int) (dx, dy, dz int) {
	switch axis {
	case 0:
		return 1, 0, 0
	case 1:
		return 0, 1, 0
	default:
		return 0, 0, 1
	}
}

// transverseAxes returns the two axes perpendicular to axis.
func transverseAxes(axis int) (t1, t2 int) {
	switch axis {
	case 0:
		return 1, 2
	case 1:
		return 0, 2
	default:
		return 0, 1
	}
}

// faceGradPhi computes the full gradient of every phase at the staggered
// face between cell (x,y,z) and its +axis neighbor: the normal component is
// the direct difference, the transverse components average the central
// differences of the two adjacent cells, touching the planar diagonal
// neighbors that make the µ-kernel a D3C19 stencil.
func faceGradPhi(f *grid.Field, x, y, z, axis int, invDx float64, out *[NP][3]float64) {
	ox, oy, oz := axisOffsets(axis)
	q := 0.25 * invDx
	for a := 0; a < NP; a++ {
		out[a][axis] = (f.At(a, x+ox, y+oy, z+oz) - f.At(a, x, y, z)) * invDx
		t1, t2 := transverseAxes(axis)
		for _, t := range [2]int{t1, t2} {
			tx, ty, tz := axisOffsets(t)
			out[a][t] = (f.At(a, x+tx, y+ty, z+tz) + f.At(a, x+ox+tx, y+oy+ty, z+oz+tz) -
				f.At(a, x-tx, y-ty, z-tz) - f.At(a, x+ox-tx, y+oy-ty, z+oz-tz)) * q
		}
	}
}

// faceGradPhiOne computes the full staggered-face gradient of a single
// phase (the lazy per-phase path of the production µ-kernel: most faces
// only carry one solid plus liquid, so computing all four gradients up
// front wastes two thirds of the loads).
func faceGradPhiOne(f *grid.Field, x, y, z, axis, a int, invDx float64, out *[3]float64) {
	ox, oy, oz := axisOffsets(axis)
	q := 0.25 * invDx
	out[axis] = (f.At(a, x+ox, y+oy, z+oz) - f.At(a, x, y, z)) * invDx
	t1, t2 := transverseAxes(axis)
	for _, t := range [2]int{t1, t2} {
		tx, ty, tz := axisOffsets(t)
		out[t] = (f.At(a, x+tx, y+ty, z+tz) + f.At(a, x+ox+tx, y+oy+ty, z+oz+tz) -
			f.At(a, x-tx, y-ty, z-tz) - f.At(a, x+ox-tx, y+oy-ty, z+oz-tz)) * q
	}
}

// isBulkCell reports whether cell (x,y,z) of the φ field is a bulk cell in
// the sense of the shortcut optimization: a simplex vertex whose six face
// neighbors all equal it, so both ∂φ/∂t and all staggered fluxes vanish.
func isBulkCell(f *grid.Field, x, y, z int) bool {
	vertex := -1
	for a := 0; a < NP; a++ {
		v := f.At(a, x, y, z)
		if v == 1 {
			vertex = a
		} else if v != 0 {
			return false
		}
	}
	if vertex < 0 {
		return false
	}
	for a := 0; a < NP; a++ {
		c := f.At(a, x, y, z)
		if f.At(a, x+1, y, z) != c || f.At(a, x-1, y, z) != c ||
			f.At(a, x, y+1, z) != c || f.At(a, x, y-1, z) != c ||
			f.At(a, x, y, z+1) != c || f.At(a, x, y, z-1) != c {
			return false
		}
	}
	return true
}

// regionHasLiquid reports whether the cell or any face neighbor carries
// liquid phase; if not, every staggered face has φ_ℓ = 0 and the
// anti-trapping current vanishes identically (the µ-kernel solid shortcut).
func regionHasLiquid(f *grid.Field, x, y, z int) bool {
	if f.At(LQ, x, y, z) != 0 {
		return true
	}
	return f.At(LQ, x+1, y, z) != 0 || f.At(LQ, x-1, y, z) != 0 ||
		f.At(LQ, x, y+1, z) != 0 || f.At(LQ, x, y-1, z) != 0 ||
		f.At(LQ, x, y, z+1) != 0 || f.At(LQ, x, y, z-1) != 0
}
