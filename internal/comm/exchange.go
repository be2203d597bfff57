package comm

import (
	"time"

	"repro/internal/grid"
)

// haloRegion describes the cell box to pack (on the sender) or unpack (on
// the receiver) for one face at one exchange stage. Bounds are half-open
// in field-local coordinates (ghost coordinates allowed).
type haloRegion struct {
	x0, x1, y0, y1, z0, z1 int
}

func (r haloRegion) numCells() int {
	return (r.x1 - r.x0) * (r.y1 - r.y0) * (r.z1 - r.z0)
}

// stageRegions returns the pack (send) and unpack (recv) regions for the
// given face of a field at its axis' stage. The transverse extents widen
// with the stage so that earlier stages' ghost data propagates into edges
// and corners: the y-stage includes x-ghosts, the z-stage includes x- and
// y-ghosts. This staged scheme needs only 6 messages per field per step yet
// fills the full 26-neighborhood halo required by D3C19.
func stageRegions(f *grid.Field, face grid.Face) (pack, unpack haloRegion) {
	g := f.G
	// Transverse extents per axis stage.
	var tx0, tx1, ty0, ty1, tz0, tz1 int
	switch face.Axis() {
	case 0:
		tx0, tx1 = 0, 0 // unused for x
		ty0, ty1 = 0, f.NY
		tz0, tz1 = 0, f.NZ
	case 1:
		tx0, tx1 = -g, f.NX+g
		ty0, ty1 = 0, 0 // unused for y
		tz0, tz1 = 0, f.NZ
	default:
		tx0, tx1 = -g, f.NX+g
		ty0, ty1 = -g, f.NY+g
		tz0, tz1 = 0, 0 // unused for z
	}
	n := [3]int{f.NX, f.NY, f.NZ}[face.Axis()]
	// The sender packs its outermost interior slab of width g; the
	// receiver unpacks into its ghost slab of width g on the opposite
	// side.
	var a0, a1, b0, b1 int // pack / unpack along the face axis
	if face.IsMin() {
		a0, a1 = 0, g   // pack low interior slab
		b0, b1 = n, n+g // receiver's high ghost slab (receiver coords)
	} else {
		a0, a1 = n-g, n // pack high interior slab
		b0, b1 = -g, 0  // receiver's low ghost slab
	}
	switch face.Axis() {
	case 0:
		pack = haloRegion{a0, a1, ty0, ty1, tz0, tz1}
		unpack = haloRegion{b0, b1, ty0, ty1, tz0, tz1}
	case 1:
		pack = haloRegion{tx0, tx1, a0, a1, tz0, tz1}
		unpack = haloRegion{tx0, tx1, b0, b1, tz0, tz1}
	default:
		pack = haloRegion{tx0, tx1, ty0, ty1, a0, a1}
		unpack = haloRegion{tx0, tx1, ty0, ty1, b0, b1}
	}
	return pack, unpack
}

// packRegion copies region r of all components of f into buf (allocating if
// needed) and returns the buffer, component-major with z, y, x inner order.
// Each x-run is a slice of one field row, so it moves with one copy.
func packRegion(f *grid.Field, r haloRegion, buf []float64) []float64 {
	n := r.numCells() * f.NComp
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	i := 0
	r.rows(f, func(run []float64) {
		i += copy(buf[i:], run)
	})
	return buf
}

// unpackRegion copies buf into region r of all components of f, in
// packRegion's order.
func unpackRegion(f *grid.Field, r haloRegion, buf []float64) {
	i := 0
	r.rows(f, func(run []float64) {
		i += copy(run, buf[i:])
	})
}

// rows calls fn with the x-run [x0,x1) of every row of region r, over all
// components of f in pack order.
func (r haloRegion) rows(f *grid.Field, fn func(run []float64)) {
	for c := 0; c < f.NComp; c++ {
		for z := r.z0; z < r.z1; z++ {
			for y := r.y0; y < r.y1; y++ {
				fn(f.Row(c, y, z)[f.G+r.x0 : f.G+r.x1])
			}
		}
	}
}

// ExchangeGhosts performs the blocking staged halo exchange for rank's
// field, interleaving physical boundary-condition fills so edge and corner
// ghosts are consistent. This corresponds to "ghostlayer communication +
// boundary handling" in Algorithm 1. Every neighbour face is packed,
// sent, unpacked and released on every round.
func (w *World) ExchangeGhosts(rank int, f *grid.Field, tag Tag, bcs grid.BoundarySet) {
	w.exchangeGhosts(rank, f, tag, bcs, nil)
}

// ExchangeGhostsKeeping is ExchangeGhosts leaving the x/y ghost ring of
// every slice z with keep[z] set as it is, on a rank whose ring is local
// (RingLocal); any other rank fills every slice. The z stage, ghost
// slices -1 and NZ included, is always exchanged and filled. The caller
// vouches that each kept ring already holds the bytes the fill would
// write.
func (w *World) ExchangeGhostsKeeping(rank int, f *grid.Field, tag Tag, bcs grid.BoundarySet, keep []bool) {
	if !w.RingLocal(rank) {
		keep = nil
	}
	w.exchangeGhosts(rank, f, tag, bcs, keep)
}

// RingLocal reports whether rank's x/y ghost ring is filled from its own
// block: each of its four x and y faces is a physical boundary or wraps
// onto the rank itself. Only then is a slice's ring the boundary image of
// that slice's interior, whatever the other ranks hold.
func (w *World) RingLocal(rank int) bool {
	for face := grid.XMin; face <= grid.YMax; face++ {
		if n, ok := w.topo.Neighbor(rank, face); ok && n != rank {
			return false
		}
	}
	return true
}

func (w *World) exchangeGhosts(rank int, f *grid.Field, tag Tag, bcs grid.BoundarySet, keep []bool) {
	t0 := time.Now()
	var st Stats
	var fc [grid.NumFaces]FlowCounters
	for axis := 0; axis < 3; axis++ {
		w.exchangeAxis(rank, f, tag, &bcs, keep, axis, &st, &fc)
	}
	w.addStatsFlows(rank, tag, st, &fc)
	w.latency[rank][tag].Observe(time.Since(t0))
}

// exchangeAxis handles one stage: sends both faces of the axis, applies the
// axis' physical BCs (to the slices keep does not hold), then receives and
// unpacks.
func (w *World) exchangeAxis(rank int, f *grid.Field, tag Tag, bcs *grid.BoundarySet, keep []bool, axis int, st *Stats, fc *[grid.NumFaces]FlowCounters) {
	faces := [2]grid.Face{grid.Face(2 * axis), grid.Face(2*axis + 1)}

	var recvs [2]grid.Face
	nrecv := 0

	// Post sends for exchange faces. Pack buffers are persistent: taken
	// from this rank's per-(face,tag) free list and returned there by the
	// receiver after unpacking, so steady-state exchanges allocate nothing.
	for _, face := range faces {
		n, ok := w.topo.Neighbor(rank, face)
		if !ok || n == rank {
			continue // physical boundary or local periodic: BC handles it
		}
		t0 := time.Now()
		pack, _ := stageRegions(f, face)
		buf := packRegion(f, pack, w.tr.TakeBuf(rank, face, tag, pack.numCells()*f.NComp))
		st.Pack += time.Since(t0)

		t0 = time.Now()
		// Message arrives at the neighbor's opposite face.
		w.tr.Send(rank, n, face.Opposite(), tag, buf)
		st.Transfer += time.Since(t0)
		st.Messages++
		st.Bytes += len(buf) * 8
		fc[face].Frames++
		fc[face].Bytes += int64(len(buf) * 8)

		recvs[nrecv] = face
		nrecv++
	}

	// Physical boundaries of this axis, both faces in one pass.
	var phys [2]bool
	for i, face := range faces {
		n, ok := w.topo.Neighbor(rank, face)
		phys[i] = !ok || n == rank
	}
	bcs.ApplyAxis(f, axis, phys[0], phys[1], keep)

	// Receive and unpack. The unpack region along the axis depends on the
	// arrival side: a message arriving at our XMin face fills our low
	// ghost slab. The drained buffer goes back to its sender — the
	// neighbor on the arrival face, which sent through its opposite face.
	for _, face := range recvs[:nrecv] {
		t0 := time.Now()
		buf := w.tr.Recv(rank, face, tag)
		st.Transfer += time.Since(t0)

		t0 = time.Now()
		unpackRegion(f, arrivalRegion(f, face), buf)
		st.Unpack += time.Since(t0)

		if sender, ok := w.topo.Neighbor(rank, face); ok {
			w.tr.Release(sender, rank, face, tag, buf)
		}
	}
}

// arrivalRegion gives the ghost region filled by a message arriving at face.
func arrivalRegion(f *grid.Field, face grid.Face) haloRegion {
	// A message arriving at our `face` fills our ghost slab on that side;
	// this equals the unpack region computed for the opposite face's send.
	_, unpack := stageRegions(f, face.Opposite())
	return unpack
}
