package simd

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

func TestSetAndStore(t *testing.T) {
	v := Set(1, 2, 3, 4)
	buf := make([]float64, 4)
	v.Store(buf)
	for i, want := range []float64{1, 2, 3, 4} {
		if buf[i] != want {
			t.Errorf("lane %d = %v, want %v", i, buf[i], want)
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	s := []float64{-1.5, 0, 2.25, 1e9}
	v := Load(s)
	out := make([]float64, 4)
	v.Store(out)
	for i := range s {
		if out[i] != s[i] {
			t.Errorf("lane %d = %v, want %v", i, out[i], s[i])
		}
	}
}

func TestSplat(t *testing.T) {
	v := Splat(7.5)
	for i := 0; i < Width; i++ {
		if v[i] != 7.5 {
			t.Errorf("lane %d = %v", i, v[i])
		}
	}
}

func TestArithmetic(t *testing.T) {
	a := Set(1, 2, 3, 4)
	b := Set(5, 6, 7, 8)
	if got := a.Add(b); got != (Vec4{6, 8, 10, 12}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec4{-4, -4, -4, -4}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); got != (Vec4{5, 12, 21, 32}) {
		t.Errorf("Mul = %v", got)
	}
	if got := b.Div(a); got != (Vec4{5, 3, 7.0 / 3.0, 2}) {
		t.Errorf("Div = %v", got)
	}
	if got := a.Scale(2); got != (Vec4{2, 4, 6, 8}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestHorizontalOps(t *testing.T) {
	v := Set(1, 2, 3, 4)
	if got := v.HSum(); got != 10 {
		t.Errorf("HSum = %v", got)
	}
	w := Set(4, 3, 2, 1)
	if got := v.Dot(w); got != 20 {
		t.Errorf("Dot = %v", got)
	}
}

func TestRotate(t *testing.T) {
	v := Set(1, 2, 3, 4)
	if got := v.RotateR(); got != (Vec4{4, 1, 2, 3}) {
		t.Errorf("RotateR = %v", got)
	}
	// Four rotations return to identity.
	r := v
	for i := 0; i < 4; i++ {
		r = r.RotateR()
	}
	if r != v {
		t.Errorf("4x RotateR = %v, want %v", r, v)
	}
}

// Three right rotations are the inverse of one: composed either way they
// give back the input.
func TestRotateInverse(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		v := Set(a, b, c, d)
		inv := func(w Vec4) Vec4 { return w.RotateR().RotateR().RotateR() }
		return inv(v.RotateR()) == v && inv(v).RotateR() == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFastRSqrtAccuracy(t *testing.T) {
	for _, x := range []float64{1e-8, 1e-4, 0.01, 0.5, 1, 2, 100, 1e6, 1e12} {
		exact := 1 / math.Sqrt(x)
		got1 := FastRSqrt(x)
		got2 := FastRSqrt2(x)
		if rel := math.Abs(got1-exact) / exact; rel > 5e-3 {
			t.Errorf("FastRSqrt(%g): rel error %g > 5e-3", x, rel)
		}
		if rel := math.Abs(got2-exact) / exact; rel > 1e-5 {
			t.Errorf("FastRSqrt2(%g): rel error %g > 1e-5", x, rel)
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
		return almostEq(FastRSqrt2(x), exact, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Algebraic laws on Vec4, checked with property-based tests.

func TestAddCommutative(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		v, w := Set(a, b, c, d), Set(e, g, h, i)
		return v.Add(w) == w.Add(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b, c, d, e, g, h, i float64) bool {
		v, w := Set(a, b, c, d), Set(e, g, h, i)
		return v.Mul(w) == w.Mul(v)
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
		v := Set(a, b, c, d)
		s := v.Add(Vec4{}.Sub(v))
		return s[0] == 0 && s[1] == 0 && s[2] == 0 && s[3] == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkFastRSqrt(b *testing.B) {
	x := 1.2345
	var s float64
	for i := 0; i < b.N; i++ {
		s += FastRSqrt(x)
	}
	_ = s
}

func BenchmarkMathSqrtInverse(b *testing.B) {
	x := 1.2345
	var s float64
	for i := 0; i < b.N; i++ {
		s += 1 / math.Sqrt(x)
	}
	_ = s
}
