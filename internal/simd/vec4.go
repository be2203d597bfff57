// Package simd provides a portable four-wide SIMD abstraction layer.
//
// The paper's production code vectorizes its two compute kernels with
// explicit intrinsics (SSE2/SSE4/AVX/AVX2 on x86, QPX on Blue Gene/Q)
// behind a thin API so that kernels are written once against vector-width-4
// double-precision registers. This package is the Go analogue of that thin
// API: a Vec4 value type with exactly the operations the two production
// kernels use (lanewise arithmetic, broadcasts, horizontal sums and dot
// products, a lane rotation, and the fast inverse square root used for
// vector normalization). The Go compiler keeps Vec4 in registers for the
// hot loops; more importantly the package preserves the *algorithmic*
// structure of the paper's two vectorization strategies: cellwise for the
// φ-kernel (one Vec4 = the four phase values of one cell) and four-cell for
// the µ-kernel (one Vec4 = one quantity for four consecutive cells in x).
package simd

import "math"

// Width is the SIMD vector width in double-precision lanes. All target
// architectures in the paper (AVX, AVX2, QPX) have width four.
const Width = 4

// Vec4 is a four-lane double-precision SIMD register.
type Vec4 [Width]float64

// Set returns a Vec4 with the given lane values.
func Set(a, b, c, d float64) Vec4 { return Vec4{a, b, c, d} }

// Splat returns a Vec4 with all lanes set to x (broadcast).
func Splat(x float64) Vec4 { return Vec4{x, x, x, x} }

// Load loads four consecutive values from s. s must have at least 4 elements.
func Load(s []float64) Vec4 { return Vec4{s[0], s[1], s[2], s[3]} }

// Store writes the four lanes to s. s must have at least 4 elements.
func (v Vec4) Store(s []float64) { s[0], s[1], s[2], s[3] = v[0], v[1], v[2], v[3] }

// Add returns v + w lanewise.
func (v Vec4) Add(w Vec4) Vec4 { return Vec4{v[0] + w[0], v[1] + w[1], v[2] + w[2], v[3] + w[3]} }

// Sub returns v - w lanewise.
func (v Vec4) Sub(w Vec4) Vec4 { return Vec4{v[0] - w[0], v[1] - w[1], v[2] - w[2], v[3] - w[3]} }

// Mul returns v * w lanewise.
func (v Vec4) Mul(w Vec4) Vec4 { return Vec4{v[0] * w[0], v[1] * w[1], v[2] * w[2], v[3] * w[3]} }

// Div returns v / w lanewise.
func (v Vec4) Div(w Vec4) Vec4 { return Vec4{v[0] / w[0], v[1] / w[1], v[2] / w[2], v[3] / w[3]} }

// Scale returns v * s with scalar s broadcast to all lanes.
func (v Vec4) Scale(s float64) Vec4 { return Vec4{v[0] * s, v[1] * s, v[2] * s, v[3] * s} }

// HSum returns the horizontal sum of all lanes.
func (v Vec4) HSum() float64 { return v[0] + v[1] + v[2] + v[3] }

// Dot returns the dot product of v and w across lanes.
func (v Vec4) Dot(w Vec4) float64 {
	return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] + v[3]*w[3]
}

// RotateR rotates lanes right by one: {a,b,c,d} -> {d,a,b,c}. On AVX2 this
// is a single permute; the abstraction layer emulates it on older
// extensions.
func (v Vec4) RotateR() Vec4 { return Vec4{v[3], v[0], v[1], v[2]} }

// FastRSqrt computes an approximate 1/sqrt(x) for x > 0 using the Lomont
// magic-constant method on the 64-bit float representation with one
// Newton-Raphson iteration.
func FastRSqrt(x float64) float64 {
	i := math.Float64bits(x)
	i = 0x5FE6EB50C7B537A9 - (i >> 1)
	y := math.Float64frombits(i)
	// One Newton-Raphson step: y <- y*(1.5 - 0.5*x*y*y).
	y = y * (1.5 - 0.5*x*y*y)
	return y
}

// FastRSqrt2 is FastRSqrt with a second Newton-Raphson refinement.
func FastRSqrt2(x float64) float64 {
	y := FastRSqrt(x)
	return y * (1.5 - 0.5*x*y*y)
}
