package mesh

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

// sphereField builds a φ field whose phase-0 component is a smooth sphere
// indicator of radius r centered in the domain.
func sphereField(n int, r float64) *grid.Field {
	f := grid.NewField(n, n, n, 1, 1, grid.SoA)
	c := float64(n-1) / 2
	for z := -1; z <= n; z++ {
		for y := -1; y <= n; y++ {
			for x := -1; x <= n; x++ {
				d := math.Sqrt(sq(float64(x)-c) + sq(float64(y)-c) + sq(float64(z)-c))
				// Smooth profile: 1 inside, 0 outside, tanh across r.
				f.Set(0, x, y, z, 0.5*(1-math.Tanh(2*(d-r))))
			}
		}
	}
	return f
}

func sq(x float64) float64 { return x * x }

func TestVec3Ops(t *testing.T) {
	v := Vec3{1, 0, 0}
	w := Vec3{0, 1, 0}
	if v.Cross(w) != (Vec3{0, 0, 1}) {
		t.Error("cross product wrong")
	}
	if v.Add(w).Sub(w) != v {
		t.Error("add/sub wrong")
	}
	if math.Abs(Vec3{3, 4, 0}.Norm()-5) > 1e-14 {
		t.Error("norm wrong")
	}
}

func TestSphereExtraction(t *testing.T) {
	const n = 24
	r := 8.0
	f := sphereField(n, r)
	m := ExtractPhase(f, 0)

	if m.NumTris() == 0 {
		t.Fatal("no triangles extracted")
	}
	if !m.IsClosed() {
		t.Fatal("sphere isosurface is not closed")
	}
	area := m.Area()
	wantArea := 4 * math.Pi * r * r
	if math.Abs(area-wantArea)/wantArea > 0.05 {
		t.Errorf("area = %g, want ~%g", area, wantArea)
	}
	vol := m.SignedVolume()
	wantVol := 4.0 / 3.0 * math.Pi * r * r * r
	if math.Abs(vol-wantVol)/wantVol > 0.05 {
		t.Errorf("volume = %g, want ~%g (orientation must be outward-consistent)", vol, wantVol)
	}
}

func TestExtractionEdgeLengthOrderDx(t *testing.T) {
	f := sphereField(16, 5)
	m := ExtractPhase(f, 0)
	for _, tr := range m.Tris {
		for e := 0; e < 3; e++ {
			l := m.Verts[tr[e]].Sub(m.Verts[tr[(e+1)%3]]).Norm()
			if l > 2.0 {
				t.Fatalf("edge length %g ≫ dx", l)
			}
		}
	}
}

func TestQuadricPlaneError(t *testing.T) {
	var q Quadric
	n := Vec3{0, 0, 1}
	q.AddPlane(n, -2, 1) // plane z = 2
	if e := q.Eval(Vec3{5, -3, 2}); math.Abs(e) > 1e-12 {
		t.Errorf("on-plane error %g", e)
	}
	if e := q.Eval(Vec3{0, 0, 5}); math.Abs(e-9) > 1e-12 {
		t.Errorf("off-plane error %g, want 9", e)
	}
}

// Property: sums of random plane quadrics are PSD (error ≥ 0 everywhere).
func TestQuadricPSDProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed uint8) bool {
		var q Quadric
		for i := 0; i < 5; i++ {
			n := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			l := n.Norm()
			if l == 0 {
				continue
			}
			q.AddPlane(n.Scale(1/l), rng.NormFloat64(), rng.Float64()+0.1)
		}
		for i := 0; i < 10; i++ {
			v := Vec3{rng.NormFloat64() * 5, rng.NormFloat64() * 5, rng.NormFloat64() * 5}
			if q.Eval(v) < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSimplifyReducesAndPreservesShape(t *testing.T) {
	f := sphereField(24, 8)
	m := ExtractPhase(f, 0)
	tris0 := m.NumTris()
	area0 := m.Area()

	target := tris0 / 4
	Simplify(m, SimplifyOptions{TargetTris: target})
	if m.NumTris() > tris0/3 {
		t.Errorf("simplify left %d of %d tris (target %d)", m.NumTris(), tris0, target)
	}
	if !m.IsClosed() {
		t.Error("simplified sphere no longer closed")
	}
	area1 := m.Area()
	if math.Abs(area1-area0)/area0 > 0.15 {
		t.Errorf("area changed too much: %g -> %g", area0, area1)
	}
	vol := m.SignedVolume()
	want := 4.0 / 3.0 * math.Pi * 512
	if math.Abs(vol-want)/want > 0.15 {
		t.Errorf("volume drifted: %g want ~%g", vol, want)
	}
}

func TestSimplifyRespectsMaxError(t *testing.T) {
	f := sphereField(16, 5)
	m := ExtractPhase(f, 0)
	tris0 := m.NumTris()
	// A tiny error budget barely allows collapses of coplanar regions.
	Simplify(m, SimplifyOptions{TargetTris: 1, MaxError: 1e-12})
	if m.NumTris() < tris0/4 {
		t.Errorf("MaxError ignored: %d -> %d tris", tris0, m.NumTris())
	}
}

// cloneMesh returns a deep copy of m.
func cloneMesh(m *Mesh) *Mesh {
	return &Mesh{
		Verts: slices.Clone(m.Verts),
		Tris:  slices.Clone(m.Tris),
	}
}

// Simplify's allocations are a fixed set of per-call arrays: nothing is
// allocated per queue entry or per collapse, so coarsening five times
// further costs no more allocations.
func TestSimplifyAllocsIndependentOfCollapses(t *testing.T) {
	base := ExtractPhase(sphereField(24, 8), 0)
	allocs := func(target int) float64 {
		const runs = 5
		in := make([]*Mesh, runs+1) // AllocsPerRun adds one warm-up call
		for i := range in {
			in[i] = cloneMesh(base)
		}
		i := 0
		return testing.AllocsPerRun(runs, func() {
			Simplify(in[i], SimplifyOptions{TargetTris: target})
			i++
		})
	}
	n := base.NumTris()
	half, tenth := allocs(n/2), allocs(n/10)
	if math.Abs(half-tenth) > 2 {
		t.Errorf("allocs per Simplify: %v at n/2, %v at n/10 — allocation scales with collapses", half, tenth)
	}
}

func TestWriteSTL(t *testing.T) {
	f := sphereField(10, 3)
	m := ExtractPhase(f, 0)
	var buf bytes.Buffer
	if err := m.WriteSTL(&buf); err != nil {
		t.Fatal(err)
	}
	want := 84 + 50*m.NumTris()
	if buf.Len() != want {
		t.Errorf("STL size %d, want %d", buf.Len(), want)
	}
}

func TestWriteOBJ(t *testing.T) {
	m := &Mesh{
		Verts: []Vec3{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}},
		Tris:  [][3]int32{{0, 1, 2}},
	}
	var buf bytes.Buffer
	if err := m.WriteOBJ(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n" {
		t.Errorf("OBJ output:\n%s", got)
	}
}

func TestCompact(t *testing.T) {
	m := &Mesh{
		Verts: []Vec3{{0, 0, 0}, {9, 9, 9}, {1, 0, 0}, {0, 1, 0}},
		Tris:  [][3]int32{{0, 2, 3}},
	}
	m.compact()
	if m.NumVerts() != 3 {
		t.Errorf("compact kept %d verts", m.NumVerts())
	}
	if m.Verts[1] != (Vec3{1, 0, 0}) {
		t.Error("compact remapping wrong")
	}
}
