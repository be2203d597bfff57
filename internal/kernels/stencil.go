package kernels

import (
	"math"

	"repro/internal/grid"
)

// Stencil-access helpers and the register types of the production kernels.

// q4 holds one value per phase (φ) or the four lanes of a face-flux
// partial sum. It is a four-field struct, not an array, so that the Go
// compiler keeps it in registers (see the package doc). Every method is
// written to inline and to round exactly as the lane-by-lane expression
// it names.
type q4 struct{ a0, a1, a2, a3 float64 }

func splat(s float64) q4 { return q4{s, s, s, s} }

func (v q4) add(w q4) q4 { return q4{v.a0 + w.a0, v.a1 + w.a1, v.a2 + w.a2, v.a3 + w.a3} }

func (v q4) sub(w q4) q4 { return q4{v.a0 - w.a0, v.a1 - w.a1, v.a2 - w.a2, v.a3 - w.a3} }

func (v q4) mul(w q4) q4 { return q4{v.a0 * w.a0, v.a1 * w.a1, v.a2 * w.a2, v.a3 * w.a3} }

func (v q4) scale(s float64) q4 { return q4{v.a0 * s, v.a1 * s, v.a2 * s, v.a3 * s} }

// dot is ((v0·w0 + v1·w1) + v2·w2) + v3·w3.
func (v q4) dot(w q4) float64 { return v.a0*w.a0 + v.a1*w.a1 + v.a2*w.a2 + v.a3*w.a3 }

// hsum is ((v0 + v1) + v2) + v3.
func (v q4) hsum() float64 { return v.a0 + v.a1 + v.a2 + v.a3 }

// row4 loads a per-phase table row.
func row4(r *[NP]float64) q4 { return q4{r[0], r[1], r[2], r[3]} }

// load4 reads the four components of one cell, cs apart, from flat index i.
func load4(d []float64, i, cs int) q4 {
	return q4{d[i], d[i+cs], d[i+2*cs], d[i+3*cs]}
}

func (v q4) store(d []float64, i, cs int) {
	d[i], d[i+cs], d[i+2*cs], d[i+3*cs] = v.a0, v.a1, v.a2, v.a3
}

// strides are a field's flat-index distances between neighbours in y and
// z and between components; x neighbours are 1 apart (grid.Field.Idx).
// The kernels' four fields share one block shape, so one set of strides
// and one flat cell index address all of them.
type strides struct{ sy, sz, cs int }

// sweepStrides returns the strides shared by all four fields of f. A field
// of another shape is a bug in the caller.
func sweepStrides(f *Fields) strides {
	g := f.PhiSrc
	for _, h := range []*grid.Field{f.PhiDst, f.MuSrc, f.MuDst} {
		if h.NX != g.NX || h.NY != g.NY || h.NZ != g.NZ || h.G != g.G {
			panic("kernels: fields of one sweep differ in shape")
		}
	}
	o := g.Idx(0, 0, 0, 0)
	return strides{sy: g.Idx(0, 0, 1, 0) - o, sz: g.Idx(0, 0, 0, 1) - o, cs: g.Idx(1, 0, 0, 0) - o}
}

// fastRSqrt computes an approximate 1/sqrt(x) for x > 0 using the Lomont
// magic-constant method on the 64-bit float representation with one
// Newton-Raphson iteration.
func fastRSqrt(x float64) float64 {
	i := math.Float64bits(x)
	i = 0x5FE6EB50C7B537A9 - (i >> 1)
	y := math.Float64frombits(i)
	// One Newton-Raphson step: y <- y*(1.5 - 0.5*x*y*y).
	y = y * (1.5 - 0.5*x*y*y)
	return y
}

// fastRSqrt2 is fastRSqrt with a second Newton-Raphson refinement, the
// normalization of the anti-trapping current (§5.1.1 replaces exact square
// roots by it).
func fastRSqrt2(x float64) float64 {
	y := fastRSqrt(x)
	return y * (1.5 - 0.5*x*y*y)
}

// Per-cell accessors of the oracle kernels and the tests.

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
