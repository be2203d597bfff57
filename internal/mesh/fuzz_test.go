package mesh

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/grid"
)

// FuzzSimplify runs the output path — ExtractPhase, then Simplify to a
// fuzzed fraction of the extracted face count — on small seeded φ fields
// (a few smooth blobs plus seeded noise) and checks that the result is a
// well-formed indexed mesh and a pure function of its input. Run it longer
// locally with e.g.
//
//	go test -run '^$' -fuzz FuzzSimplify -fuzztime 60s ./internal/mesh/
func FuzzSimplify(f *testing.F) {
	f.Add(int64(1), uint8(5), uint16(1<<14))
	f.Add(int64(2), uint8(3), uint16(0))
	f.Add(int64(3), uint8(0), uint16(math.MaxUint16))
	f.Add(int64(4), uint8(7), uint16(1<<15))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, frac uint16) {
		n := 3 + int(size%6)
		m := ExtractPhase(blobField(seed, n), 0)
		tris0 := m.NumTris()
		target := tris0 * int(frac) / math.MaxUint16
		twin := cloneMesh(m)

		c1 := Simplify(m, SimplifyOptions{TargetTris: target})
		c2 := Simplify(twin, SimplifyOptions{TargetTris: target})
		if c1 != c2 || !slices.Equal(m.Verts, twin.Verts) || !slices.Equal(m.Tris, twin.Tris) {
			t.Fatal("two runs on identical input differ")
		}
		if m.NumTris() > tris0 {
			t.Fatalf("face count grew: %d -> %d", tris0, m.NumTris())
		}
		used := make([]bool, len(m.Verts))
		for i, tr := range m.Tris {
			for _, v := range tr {
				if v < 0 || int(v) >= len(m.Verts) {
					t.Fatalf("tri %d: index %d out of range [0,%d)", i, v, len(m.Verts))
				}
				used[v] = true
			}
			if tr[0] == tr[1] || tr[1] == tr[2] || tr[0] == tr[2] {
				t.Fatalf("tri %d is degenerate: %v", i, tr)
			}
		}
		if i := slices.Index(used, false); i >= 0 {
			t.Fatalf("vertex %d is unreferenced", i)
		}
	})
}

// blobField is a seeded n³ φ field (ghost layer included): the union of
// one to three smooth spheres, some crossing the hull, plus uniform noise
// of seeded amplitude.
func blobField(seed int64, n int) *grid.Field {
	rng := rand.New(rand.NewSource(seed))
	type blob struct {
		c Vec3
		r float64
	}
	blobs := make([]blob, 1+rng.Intn(3))
	for i := range blobs {
		s := float64(n)
		blobs[i] = blob{Vec3{rng.Float64() * s, rng.Float64() * s, rng.Float64() * s}, 0.5 + rng.Float64()*s/2}
	}
	noise := rng.Float64() * 0.6
	f := grid.NewField(n, n, n, 1, 1, grid.SoA)
	for z := -1; z <= n; z++ {
		for y := -1; y <= n; y++ {
			for x := -1; x <= n; x++ {
				p := Vec3{float64(x), float64(y), float64(z)}
				v := 0.0
				for _, b := range blobs {
					v = max(v, 0.5*(1-math.Tanh(2*(p.Sub(b.c).Norm()-b.r))))
				}
				f.Set(0, x, y, z, v+noise*(rng.Float64()-0.5))
			}
		}
	}
	return f
}
