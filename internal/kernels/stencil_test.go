package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// sameQ4 compares two lane structs bit for bit, so that a signed zero or
// a NaN payload counts.
func sameQ4(a, b q4) bool {
	return math.Float64bits(a.a0) == math.Float64bits(b.a0) &&
		math.Float64bits(a.a1) == math.Float64bits(b.a1) &&
		math.Float64bits(a.a2) == math.Float64bits(b.a2) &&
		math.Float64bits(a.a3) == math.Float64bits(b.a3)
}

// store writes one cell's four components cs apart and touches nothing
// in between.
func TestSetAndStore(t *testing.T) {
	d := make([]float64, 9)
	q4{1, 2, 3, 4}.store(d, 1, 2)
	for i, want := range []float64{0, 1, 0, 2, 0, 3, 0, 4, 0} {
		if d[i] != want {
			t.Errorf("d[%d] = %v, want %v", i, d[i], want)
		}
	}
}

// load4 reads back what store wrote, signed zero included.
func TestLoadRoundTrip(t *testing.T) {
	d := make([]float64, 9)
	v := q4{-1.5, math.Copysign(0, -1), 2.25, 1e9}
	v.store(d, 1, 2)
	if got := load4(d, 1, 2); !sameQ4(got, v) {
		t.Errorf("store/load4 round trip: %v from %v", got, d)
	}
	f := func(v0, v1, v2, v3 float64) bool {
		v := q4{v0, v1, v2, v3}
		d := make([]float64, 8)
		v.store(d, 0, 2)
		return sameQ4(load4(d, 0, 2), v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplat(t *testing.T) {
	if got := splat(7.5); got != (q4{7.5, 7.5, 7.5, 7.5}) {
		t.Errorf("splat(7.5) = %v", got)
	}
}

// q4's methods must round exactly as the lane-by-lane expressions the
// production kernels were written against: the kernels' output bytes are
// pinned, so a reassociated sum (a dot product summed pairwise, say) is a
// behaviour change, not a refactor.
func TestArithmetic(t *testing.T) {
	a, b := q4{1, 2, 3, 4}, q4{5, 6, 7, 8}
	if got := a.add(b); got != (q4{6, 8, 10, 12}) {
		t.Errorf("add = %v", got)
	}
	if got := a.sub(b); got != (q4{-4, -4, -4, -4}) {
		t.Errorf("sub = %v", got)
	}
	if got := a.mul(b); got != (q4{5, 12, 21, 32}) {
		t.Errorf("mul = %v", got)
	}
	if got := a.scale(2); got != (q4{2, 4, 6, 8}) {
		t.Errorf("scale = %v", got)
	}
	f := func(v0, v1, v2, v3, w0, w1, w2, w3, s float64) bool {
		v, w := q4{v0, v1, v2, v3}, q4{w0, w1, w2, w3}
		return sameQ4(v.add(w), q4{v0 + w0, v1 + w1, v2 + w2, v3 + w3}) &&
			sameQ4(v.sub(w), q4{v0 - w0, v1 - w1, v2 - w2, v3 - w3}) &&
			sameQ4(v.mul(w), q4{v0 * w0, v1 * w1, v2 * w2, v3 * w3}) &&
			sameQ4(v.scale(s), q4{v0 * s, v1 * s, v2 * s, v3 * s})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// hsum and dot sum left to right, as the pinned kernels did.
func TestHorizontalOps(t *testing.T) {
	v, w := q4{1, 2, 3, 4}, q4{4, 3, 2, 1}
	if got := v.hsum(); got != 10 {
		t.Errorf("hsum = %v", got)
	}
	if got := v.dot(w); got != 20 {
		t.Errorf("dot = %v", got)
	}
	f := func(v0, v1, v2, v3, w0, w1, w2, w3 float64) bool {
		v, w := q4{v0, v1, v2, v3}, q4{w0, w1, w2, w3}
		dot := ((v0*w0 + v1*w1) + v2*w2) + v3*w3
		sum := ((v0 + v1) + v2) + v3
		return math.Float64bits(v.dot(w)) == math.Float64bits(dot) &&
			math.Float64bits(v.hsum()) == math.Float64bits(sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Algebraic laws on q4, checked with property-based tests.

func TestAddCommutative(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		v, w := q4{a, b, c, d}, q4{e, g, h, i}
		return sameQ4(v.add(w), w.add(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		v, w := q4{a, b, c, d}, q4{e, g, h, i}
		return sameQ4(v.mul(w), w.mul(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddNegIsZero(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) || math.IsNaN(d) {
			return true
		}
		v := q4{a, b, c, d}
		return v.add(q4{}.sub(v)) == q4{}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// interp is core.Interp in registers; it must return the same bits,
// including the fallback to φ when every weight vanishes.
func TestInterpMatchesCore(t *testing.T) {
	f := func(p0, p1, p2, p3 float64) bool {
		phi := [NP]float64{p0, p1, p2, p3}
		var want [NP]float64
		core.Interp(&phi, &want)
		h := interp(q4{p0, p1, p2, p3})
		got := [NP]float64{h.a0, h.a1, h.a2, h.a3}
		for a := range got {
			if math.Float64bits(got[a]) != math.Float64bits(want[a]) {
				return false
			}
		}
		return true
	}
	for _, phi := range [][NP]float64{{0, 0, 0, 1}, {0.2, 0.3, 0, 0.5}, {0, 0, 0, 0}, {-0.1, 0, 0, 0}, {2, 0, 0, 0}} {
		if !f(phi[0], phi[1], phi[2], phi[3]) {
			t.Errorf("interp(%v) differs from core.Interp", phi)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFastRSqrtAccuracy(t *testing.T) {
	for _, x := range []float64{1e-8, 1e-4, 0.01, 0.5, 1, 2, 100, 1e6, 1e12} {
		exact := 1 / math.Sqrt(x)
		if rel := math.Abs(fastRSqrt(x)-exact) / exact; rel > 5e-3 {
			t.Errorf("fastRSqrt(%g): rel error %g > 5e-3", x, rel)
		}
		if rel := math.Abs(fastRSqrt2(x)-exact) / exact; rel > 1e-5 {
			t.Errorf("fastRSqrt2(%g): rel error %g > 1e-5", x, rel)
		}
	}
}

func TestFastRSqrtProperty(t *testing.T) {
	f := func(x float64) bool {
		x = math.Abs(x)
		if x < 1e-30 || x > 1e30 || math.IsNaN(x) || math.IsInf(x, 0) {
			return true // out of supported range
		}
		exact := 1 / math.Sqrt(x)
		return math.Abs(fastRSqrt2(x)-exact) <= 1e-4*exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
