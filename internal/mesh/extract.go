package mesh

import (
	"repro/internal/grid"
)

// Isosurface extraction. The paper uses a custom marching-cubes variant
// after Lorensen–Cline; this implementation uses the marching-tetrahedra
// decomposition (each cube split into six tetrahedra around its main
// diagonal), which produces a topologically consistent, watertight surface
// with triangle edge lengths on the order of dx — the property the
// downstream coarsening relies on — without the 256-entry case table.
// Extraction extends one cell into the ghost region, so the surface
// reaches the domain faces of a zero-gradient-filled field.

// IsoLevel is the φ level-set defining a phase interface.
const IsoLevel = 0.5

// cube corner offsets.
var cornerOff = [8][3]int{
	{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {0, 1, 0},
	{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {0, 1, 1},
}

// Six tetrahedra around the main diagonal c0–c6.
var tets = [6][4]int{
	{0, 5, 1, 6},
	{0, 1, 2, 6},
	{0, 2, 3, 6},
	{0, 3, 7, 6},
	{0, 7, 4, 6},
	{0, 4, 5, 6},
}

// extractor deduplicates edge vertices across tetrahedra and cubes.
type extractor struct {
	mesh     *Mesh
	edgeVert map[[2]int64]int32
	nx, ny   int
}

// nodeID packs a lattice node coordinate (shifted to be nonnegative).
func (e *extractor) nodeID(x, y, z int) int64 {
	return int64(z+1)*int64(e.ny+3)*int64(e.nx+3) + int64(y+1)*int64(e.nx+3) + int64(x+1)
}

// vertexOn returns the index of the interpolated iso-crossing vertex on the
// lattice edge between nodes a and b with scalar values va, vb.
func (e *extractor) vertexOn(ax, ay, az int, va float64, bx, by, bz int, vb float64) int32 {
	ia, ib := e.nodeID(ax, ay, az), e.nodeID(bx, by, bz)
	key := [2]int64{ia, ib}
	if ia > ib {
		key = [2]int64{ib, ia}
	}
	if v, ok := e.edgeVert[key]; ok {
		return v
	}
	t := 0.5
	if vb != va {
		t = (IsoLevel - va) / (vb - va)
	}
	p := Vec3{
		float64(ax) + t*float64(bx-ax),
		float64(ay) + t*float64(by-ay),
		float64(az) + t*float64(bz-az),
	}
	idx := int32(len(e.mesh.Verts))
	e.mesh.Verts = append(e.mesh.Verts, p)
	e.edgeVert[key] = idx
	return idx
}

// ExtractPhase extracts the iso-0.5 surface of phase a from a φ field,
// sampling cell centers. The lattice spans [-1, N] in every direction (one
// ghost cell).
func ExtractPhase(f *grid.Field, phase int) *Mesh {
	e := &extractor{
		mesh:     &Mesh{},
		edgeVert: make(map[[2]int64]int32),
		nx:       f.NX, ny: f.NY,
	}

	val := func(x, y, z int) float64 { return f.At(phase, x, y, z) }

	// Cubes span lattice nodes [-1, N-1+1): node i is cell center i.
	for z := -1; z < f.NZ; z++ {
		for y := -1; y < f.NY; y++ {
			for x := -1; x < f.NX; x++ {
				var vv [8]float64
				var pos [8][3]int
				allLo, allHi := true, true
				for c := 0; c < 8; c++ {
					px := x + cornerOff[c][0]
					py := y + cornerOff[c][1]
					pz := z + cornerOff[c][2]
					pos[c] = [3]int{px, py, pz}
					v := val(px, py, pz)
					vv[c] = v
					if v >= IsoLevel {
						allLo = false
					} else {
						allHi = false
					}
				}
				if allLo || allHi {
					continue
				}
				for _, tet := range tets {
					e.emitTet(&vv, &pos, tet)
				}
			}
		}
	}

	return e.mesh
}

// emitTet produces the 0, 1 or 2 triangles of one tetrahedron.
func (e *extractor) emitTet(vv *[8]float64, pos *[8][3]int, tet [4]int) {
	var above [4]bool
	nAbove := 0
	for i, c := range tet {
		if vv[c] >= IsoLevel {
			above[i] = true
			nAbove++
		}
	}
	if nAbove == 0 || nAbove == 4 {
		return
	}

	vert := func(i, j int) int32 {
		a, b := tet[i], tet[j]
		return e.vertexOn(pos[a][0], pos[a][1], pos[a][2], vv[a],
			pos[b][0], pos[b][1], pos[b][2], vv[b])
	}
	centroidAbove := func(idxs ...int) Vec3 {
		var c Vec3
		for _, i := range idxs {
			p := pos[tet[i]]
			c = c.Add(Vec3{float64(p[0]), float64(p[1]), float64(p[2])})
		}
		return c.Scale(1 / float64(len(idxs)))
	}

	switch nAbove {
	case 1, 3:
		// One vertex separated from the other three: one triangle.
		loneIsAbove := nAbove == 1
		iso := 0
		for i := 0; i < 4; i++ {
			if above[i] == loneIsAbove {
				iso = i
			}
		}
		var others [3]int
		k := 0
		for i := 0; i < 4; i++ {
			if i != iso {
				others[k] = i
				k++
			}
		}
		t := [3]int32{vert(iso, others[0]), vert(iso, others[1]), vert(iso, others[2])}
		// Orient the triangle so its normal points away from the
		// above-iso side (outward from the phase region).
		var inside Vec3
		if loneIsAbove {
			inside = centroidAbove(iso)
		} else {
			inside = centroidAbove(others[0], others[1], others[2])
		}
		e.emitOriented(t, inside)
	case 2:
		// Two above: a quad split into two triangles.
		var ab, be [2]int // above / below indices
		ka, kb := 0, 0
		for i := 0; i < 4; i++ {
			if above[i] {
				ab[ka] = i
				ka++
			} else {
				be[kb] = i
				kb++
			}
		}
		v00 := vert(ab[0], be[0])
		v01 := vert(ab[0], be[1])
		v10 := vert(ab[1], be[0])
		v11 := vert(ab[1], be[1])
		inside := centroidAbove(ab[0], ab[1])
		e.emitOriented([3]int32{v00, v01, v11}, inside)
		e.emitOriented([3]int32{v00, v11, v10}, inside)
	}
}

// emitOriented appends the triangle, flipped if needed so its normal points
// away from insidePoint (the φ ≥ 0.5 side).
func (e *extractor) emitOriented(t [3]int32, insidePoint Vec3) {
	if t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
		return // degenerate (iso exactly on a shared node)
	}
	a := e.mesh.Verts[t[0]]
	b := e.mesh.Verts[t[1]]
	c := e.mesh.Verts[t[2]]
	n := b.Sub(a).Cross(c.Sub(a))
	center := a.Add(b).Add(c).Scale(1.0 / 3.0)
	if n.Dot(center.Sub(insidePoint)) < 0 {
		t[1], t[2] = t[2], t[1]
	}
	e.mesh.Tris = append(e.mesh.Tris, t)
}
