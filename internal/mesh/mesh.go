// Package mesh implements the paper's mesh-based data reduction (§3.2):
// instead of writing all cell values, only the position of the phase
// interfaces is stored as triangle surface meshes. A mesh is extracted from
// the φ field gathered on the root process, coarsened with a quadric-error
// edge-collapse simplifier, and written as binary STL. The paper extracts
// per block and merges the block meshes pairwise in log₂(P) rounds; that
// reduction was measured at 1×1 and 2×2 rank grids, was not cheaper than
// one extraction of the gathered field, and was removed (the numbers are
// in package experiments).
//
// Every stage is a deterministic function of its input, so the same φ
// field always yields the same STL bytes. The simplifier collapses edges
// cheapest first under the total order (cost, u, v) and re-costs a queue
// entry lazily, only when it is popped after one of its endpoints changed
// (see Simplify).
package mesh

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Vec3 is a mesh-space position.
type Vec3 [3]float64

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v[0] + w[0], v[1] + w[1], v[2] + w[2]} }

// Sub returns v − w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v[0] - w[0], v[1] - w[1], v[2] - w[2]} }

// Scale returns v s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v[0] * s, v[1] * s, v[2] * s} }

// Dot returns v · w.
func (v Vec3) Dot(w Vec3) float64 { return v[0]*w[0] + v[1]*w[1] + v[2]*w[2] }

// Cross returns v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v[1]*w[2] - v[2]*w[1],
		v[2]*w[0] - v[0]*w[2],
		v[0]*w[1] - v[1]*w[0],
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Mesh is an indexed triangle mesh.
type Mesh struct {
	Verts []Vec3
	Tris  [][3]int32
}

// NumTris returns the triangle count.
func (m *Mesh) NumTris() int { return len(m.Tris) }

// NumVerts returns the vertex count.
func (m *Mesh) NumVerts() int { return len(m.Verts) }

// Area returns the total surface area.
func (m *Mesh) Area() float64 {
	a := 0.0
	for _, t := range m.Tris {
		e1 := m.Verts[t[1]].Sub(m.Verts[t[0]])
		e2 := m.Verts[t[2]].Sub(m.Verts[t[0]])
		a += 0.5 * e1.Cross(e2).Norm()
	}
	return a
}

// SignedVolume returns the signed enclosed volume via the divergence
// theorem; positive for consistently outward-oriented closed surfaces.
func (m *Mesh) SignedVolume() float64 {
	v := 0.0
	for _, t := range m.Tris {
		a, b, c := m.Verts[t[0]], m.Verts[t[1]], m.Verts[t[2]]
		v += a.Dot(b.Cross(c)) / 6
	}
	return v
}

// EdgeUseCounts maps each undirected edge to the number of triangles using
// it. A closed 2-manifold has every edge used exactly twice.
func (m *Mesh) EdgeUseCounts() map[[2]int32]int {
	edges := make(map[[2]int32]int)
	for _, t := range m.Tris {
		for e := 0; e < 3; e++ {
			a, b := t[e], t[(e+1)%3]
			if a > b {
				a, b = b, a
			}
			edges[[2]int32{a, b}]++
		}
	}
	return edges
}

// IsClosed reports whether every edge is shared by exactly two triangles.
func (m *Mesh) IsClosed() bool {
	for _, c := range m.EdgeUseCounts() {
		if c != 2 {
			return false
		}
	}
	return len(m.Tris) > 0
}

// compact drops unreferenced vertices and renumbers the rest in order of
// first use by the triangle list.
func (m *Mesh) compact() {
	used := make([]int32, len(m.Verts))
	for i := range used {
		used[i] = -1
	}
	n := int32(0)
	for ti := range m.Tris {
		for e := 0; e < 3; e++ {
			v := m.Tris[ti][e]
			if used[v] < 0 {
				used[v] = n
				n++
			}
			m.Tris[ti][e] = used[v]
		}
	}
	verts := make([]Vec3, n)
	for old, nw := range used {
		if nw >= 0 {
			verts[nw] = m.Verts[old]
		}
	}
	m.Verts = verts
}

// WriteSTL writes the mesh in binary STL format.
func (m *Mesh) WriteSTL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var header [80]byte
	copy(header[:], "phasefield isosurface")
	if _, err := bw.Write(header[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(m.Tris))); err != nil {
		return err
	}
	for _, t := range m.Tris {
		a, b, c := m.Verts[t[0]], m.Verts[t[1]], m.Verts[t[2]]
		n := b.Sub(a).Cross(c.Sub(a))
		if l := n.Norm(); l > 0 {
			n = n.Scale(1 / l)
		}
		buf := [12]float32{
			float32(n[0]), float32(n[1]), float32(n[2]),
			float32(a[0]), float32(a[1]), float32(a[2]),
			float32(b[0]), float32(b[1]), float32(b[2]),
			float32(c[0]), float32(c[1]), float32(c[2]),
		}
		if err := binary.Write(bw, binary.LittleEndian, buf); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint16(0)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteOBJ writes the mesh in Wavefront OBJ format.
func (m *Mesh) WriteOBJ(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, v := range m.Verts {
		if _, err := fmt.Fprintf(bw, "v %g %g %g\n", v[0], v[1], v[2]); err != nil {
			return err
		}
	}
	for _, t := range m.Tris {
		if _, err := fmt.Fprintf(bw, "f %d %d %d\n", t[0]+1, t[1]+1, t[2]+1); err != nil {
			return err
		}
	}
	return bw.Flush()
}
