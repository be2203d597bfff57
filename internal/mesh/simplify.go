package mesh

import (
	"cmp"
	"slices"
)

// Quadric-error-metric edge-collapse simplification after Garland &
// Heckbert (paper ref. [12]; the paper links the VCG library's
// implementation — this is a from-scratch equivalent).

// Quadric is a symmetric 4x4 error quadric stored as its 10 unique
// coefficients: [a² ab ac ad; · b² bc bd; · · c² cd; · · · d²].
type Quadric [10]float64

// AddPlane accumulates the quadric of plane (n, d) with |n| = 1:
// error(v) = (n·v + d)².
func (q *Quadric) AddPlane(n Vec3, d float64, w float64) {
	q[0] += w * n[0] * n[0]
	q[1] += w * n[0] * n[1]
	q[2] += w * n[0] * n[2]
	q[3] += w * n[0] * d
	q[4] += w * n[1] * n[1]
	q[5] += w * n[1] * n[2]
	q[6] += w * n[1] * d
	q[7] += w * n[2] * n[2]
	q[8] += w * n[2] * d
	q[9] += w * d * d
}

// Add accumulates another quadric.
func (q *Quadric) Add(o *Quadric) {
	for i := range q {
		q[i] += o[i]
	}
}

// Eval returns the quadric error at v (always ≥ 0 for sums of plane
// quadrics, up to roundoff).
func (q *Quadric) Eval(v Vec3) float64 {
	x, y, z := v[0], v[1], v[2]
	return q[0]*x*x + 2*q[1]*x*y + 2*q[2]*x*z + 2*q[3]*x +
		q[4]*y*y + 2*q[5]*y*z + 2*q[6]*y +
		q[7]*z*z + 2*q[8]*z +
		q[9]
}

// SimplifyOptions tunes the edge-collapse pass.
type SimplifyOptions struct {
	// TargetTris stops collapsing when the face count reaches this.
	TargetTris int
	// MaxError stops collapsing at the first current queue entry whose
	// quadric error exceeds this (0 disables the limit).
	MaxError float64
}

// collapse is one queue entry: merge v into u (u < v) at target, costed
// when the endpoint versions summed to version.
type collapse struct {
	cost    float64
	target  Vec3
	version int64
	u, v    int32
}

// before is the queue's total order: cost, then u, then v.
func (a *collapse) before(b *collapse) bool {
	if c := cmp.Compare(a.cost, b.cost); c != 0 {
		return c < 0
	}
	if a.u != b.u {
		return a.u < b.u
	}
	return a.v < b.v
}

// simplifier is the working state of one Simplify call.
type simplifier struct {
	verts    []Vec3
	quadrics []Quadric
	parent   []int32 // union-find over collapsed vertices
	version  []int64 // bumped each time a vertex survives a collapse
	queue    []collapse
}

// find returns the surviving vertex v has been collapsed into.
func (s *simplifier) find(v int32) int32 {
	p := s.parent
	for p[v] != v {
		p[v] = p[p[v]]
		v = p[v]
	}
	return v
}

// cost prices collapsing v into u (u < v). Candidate positions are the
// midpoint and both endpoints (the exact minimizer needs a 3x3 solve;
// endpoint/midpoint selection is the standard robust fallback and is what
// matters here).
func (s *simplifier) cost(u, v int32) collapse {
	q := s.quadrics[u]
	q.Add(&s.quadrics[v])
	pu, pv := s.verts[u], s.verts[v]
	mid := pu.Add(pv).Scale(0.5)
	best, bc := mid, q.Eval(mid)
	if c := q.Eval(pu); c < bc {
		best, bc = pu, c
	}
	if c := q.Eval(pv); c < bc {
		best, bc = pv, c
	}
	return collapse{cost: bc, target: best, version: s.version[u] + s.version[v], u: u, v: v}
}

// down restores the heap order below queue[i].
func (s *simplifier) down(i int) {
	h := s.queue
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			m = r
		}
		if !h[m].before(&h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// pop removes the queue's minimum.
func (s *simplifier) pop() {
	n := len(s.queue) - 1
	s.queue[0] = s.queue[n]
	s.queue = s.queue[:n]
	s.down(0)
}

// Simplify coarsens the mesh in place using quadric-error edge collapses
// and returns the number of collapses performed.
//
// Collapses run cheapest first under the total order (cost, u, v), where
// u < v are the current vertex ids of the edge; v is merged into u at the
// cheapest of the midpoint and the two endpoints. Costs are re-evaluated
// lazily: a collapse queues nothing, and an entry that reaches the top
// after one of its endpoints was merged or moved is re-costed for the live
// pair and sifted back; only an entry still current at the top is
// collapsed. The order thus approximates an eagerly updated queue, but it
// is fully determined by the input — the same mesh always yields the same
// output, byte for byte — and the queue never outgrows the initial edge
// set, so the allocations are a fixed set of per-call arrays. Collapsing
// stops when the face count reaches TargetTris, or at the first current
// entry whose cost exceeds MaxError.
func Simplify(m *Mesh, opt SimplifyOptions) int {
	if opt.TargetTris <= 0 {
		opt.TargetTris = 1
	}
	nv := len(m.Verts)
	s := &simplifier{
		verts:    m.Verts,
		quadrics: make([]Quadric, nv),
		parent:   make([]int32, nv),
		version:  make([]int64, nv),
	}

	// Per-vertex quadrics from incident face planes.
	for _, t := range m.Tris {
		a, b, c := m.Verts[t[0]], m.Verts[t[1]], m.Verts[t[2]]
		n := b.Sub(a).Cross(c.Sub(a))
		l := n.Norm()
		if l == 0 {
			continue
		}
		n = n.Scale(1 / l)
		d := -n.Dot(a)
		for e := 0; e < 3; e++ {
			s.quadrics[t[e]].AddPlane(n, d, l/2) // area-weighted
		}
	}
	for i := range s.parent {
		s.parent[i] = int32(i)
	}

	// Faces per vertex as singly linked lists of triangle corners (corner
	// 3f+k is slot k of face f), so merging two lists and dropping dead
	// faces happens in place.
	head := make([]int32, nv)
	for i := range head {
		head[i] = -1
	}
	next := make([]int32, 3*len(m.Tris))
	alive := make([]bool, len(m.Tris))
	liveTris := 0
	for fi, t := range m.Tris {
		for k, v := range t {
			c := int32(3*fi + k)
			next[c] = head[v]
			head[v] = c
		}
		if t[0] != t[1] && t[1] != t[2] && t[0] != t[2] {
			alive[fi] = true
			liveTris++
		}
	}

	// The initial queue: every distinct edge once, packed min<<32|max.
	edges := make([]uint64, 0, 3*len(m.Tris))
	for _, t := range m.Tris {
		for e := 0; e < 3; e++ {
			a, b := t[e], t[(e+1)%3]
			if a > b {
				a, b = b, a
			}
			if a != b {
				edges = append(edges, uint64(a)<<32|uint64(b))
			}
		}
	}
	slices.Sort(edges)
	edges = slices.Compact(edges)
	s.queue = make([]collapse, len(edges))
	for i, e := range edges {
		s.queue[i] = s.cost(int32(e>>32), int32(uint32(e)))
	}
	for i := len(s.queue)/2 - 1; i >= 0; i-- {
		s.down(i)
	}

	collapses := 0
	for len(s.queue) > 0 && liveTris > opt.TargetTris {
		top := &s.queue[0]
		u, v := s.find(top.u), s.find(top.v)
		if u == v {
			s.pop()
			continue
		}
		if u > v {
			u, v = v, u
		}
		if u != top.u || v != top.v || top.version != s.version[u]+s.version[v] {
			// Stale: an endpoint was merged or moved since this entry
			// was costed. Re-cost the live pair and sift it back.
			*top = s.cost(u, v)
			s.down(0)
			continue
		}
		if opt.MaxError > 0 && top.cost > opt.MaxError {
			break
		}
		target := top.target
		s.pop()

		// Collapse v into u at the target position.
		s.parent[v] = u
		m.Verts[u] = target
		s.quadrics[u].Add(&s.quadrics[v])
		s.version[u]++

		// Remap v's faces onto u, kill degenerates, and relink the live
		// corners of both lists as u's.
		list := int32(-1)
		for _, c := range [2]int32{head[u], head[v]} {
			for c >= 0 {
				nc := next[c]
				if fi := c / 3; alive[fi] {
					t := &m.Tris[fi]
					for e := 0; e < 3; e++ {
						t[e] = s.find(t[e])
					}
					if t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
						alive[fi] = false
						liveTris--
					} else {
						next[c] = list
						list = c
					}
				}
				c = nc
			}
		}
		head[u], head[v] = list, -1
		collapses++
	}

	// Rebuild the triangle list from live faces with final vertex ids.
	tris := make([][3]int32, 0, liveTris)
	for fi, ok := range alive {
		if !ok {
			continue
		}
		t := m.Tris[fi]
		for e := 0; e < 3; e++ {
			t[e] = s.find(t[e])
		}
		if t[0] != t[1] && t[1] != t[2] && t[0] != t[2] {
			tris = append(tris, t)
		}
	}
	m.Tris = tris
	m.compact()
	return collapses
}
