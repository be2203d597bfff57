package solver

import (
	"math"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// activity.go implements per-z-slab activity tracking: the paper's dynamics
// live in a thin interface band, so bulk solid below the front and bulk melt
// above it are (near-)fixed points of both kernels. A z-slice may *sleep* —
// skip a sweep — only when the skip is provably bit-identical to the full
// sweep:
//
//   - φ: the slice and every slice within the wake margin (≥ the kernels'
//     stencil radius of 1; wakeMargin = 2) hold φ at exactly one simplex
//     vertex (one phase exactly 1.0, the rest exactly +0.0, compared on
//     float64 bits), including the x/y ghost ring, so every φ stencil input
//     of every cell in the slice is a known constant.
//   - µ: the φ-slice slept, and µ is bitwise-uniform within each of slices
//     z-1, z and z+1 (interior plus x/y ghost ring), each slice with its own
//     value. A melt column whose µ varies only in z sleeps slice by slice.
//   - A proxy run of the production kernel — same Ctx (the analytic
//     temperature depends on the global z), through the same *Range entry
//     point the sweep uses, on a tiny single-slice field holding the
//     uniform state — reproduces the would-be output. For φ the output must
//     equal the input (then skipping = copying src→dst); for µ the output
//     must be uniform (then skipping = broadcasting the proxy value, which
//     also captures the frozen-gradient drift term ∂µ/∂T·∂T/∂t that makes
//     bulk µ move even where nothing diffuses). The µ proxy's z-ghost
//     slices, rings included, hold the values of slices z-1 and z+1.
//   - The φ proxy runs at the slice's µ when its interior is bitwise-uniform
//     (the φ-kernel reads µ at cell centers only). Otherwise it runs with
//     µ = NaN: the production kernel's bulk-cell test returns before any µ
//     load, so a vertex slice is a fixed point whatever its µ, and a µ that
//     reached the output would turn it into NaN and fail the comparison.
//
// Every proxy interior cell must agree bitwise, which covers a row's first
// cell (it computes its own low x face) and the cells that take that face
// from their neighbour alike (the proxy is min(NX, 7) cells wide). The proxy's ghost ring
// holds the same vertex, so a liquid proxy takes the µ-kernel's
// liquid-bulk row path exactly as the real slice's rows would; since the
// proxy runs through the same MuSweepRange, a sleeping slice stays
// consistent with the sweep by construction. Because all stencil inputs
// of a sleeping cell are bitwise-equal to the inputs of a proxy cell with
// the same context z, and the kernels are deterministic, the full sweep
// would compute exactly the proxy's output — the invariant "a slab never
// sleeps through a change that could alter its next value" holds by
// construction.
//
// The map is re-derived from field data every step, except slices that
// slept on the previous step; invalidate() drops that. A slept slice
// carries exact facts into the next step. Its φ interior holds the vertex
// in both buffers (the copy made dst equal src, the swap exchanged them),
// so sleeping again skips the copy and re-reads at most the x/y ghost
// ring. Its µ interior holds the value broadcast last step, so neither
// derivation reads it, and deriveMu re-reads at most the ring. The ghost
// slices -1 and nz are classified in full. Every writer of field
// interiors outside the step protocol (init, restore, window shift,
// nucleation burst, BC change) calls invalidate, and the carry counts only
// when the previous step ran both derivations.
//
// Whether a carried ring is re-read depends on where it comes from. On a
// rank with a remote x or y face (comm.World.RingLocal is false) a
// neighbour rank refills part of it every step, so it is re-read every
// step. On a ring-local rank — every single-rank run, every grid that
// splits only z — a slice's ring is the boundary image of that slice's own
// interior, which changes only when the slice is swept or broadcast:
//
//   - φ fill: the φdst fill keeps the x/y ring of a slice that slept this
//     step and the previous one (keep). That buffer was filled two steps
//     back from the same vertex interior, so the ring holds the bytes a
//     fill would write. The z stage and ghost slices -1 and nz are always
//     filled. After a one-step sleep the buffer's interior has just been
//     copied in, and its ring must be refilled.
//   - φ re-read: derivePhi trusts the ring of a slice that slept on the
//     previous step, when the ring it verified then was itself a boundary
//     image under the BCs in force (prevImaged). The ring now read is the
//     image of the same vertex. A BC change between steps leaves φsrc's
//     ring stale until the next fill, so invalidate clears imaged, and only
//     a ghost refresh or the next fill sets it again.
//   - µ: when every µ x/y face is periodic or Neumann, the image of a
//     uniform slice is that same value, so a slept µ-slice's broadcast
//     writes its ring along with its interior, and the µ fill keeps that
//     ring (muKeep: the µdst fill at the end of the step under OverlapNone,
//     the µsrc exchange at the next step's start under OverlapMu). The next
//     deriveMu trusts it. A Dirichlet µ wall writes its own value, not the
//     image, so under one the ring is filled and re-read as on any other
//     rank. invalidate clears muKeep, so a BC change refills every ring.
//
// No rank's tracker reaches another rank: every halo round still packs
// and ships each neighbour face, and a ring-local rank has no x/y face to
// ship.
//
// The µ-sweep additionally reads φdst at the cell center (the ∂φ/∂t source
// term) and at face neighbors inside the anti-trapping flux. A µ-slice
// sleeps only when its φ-slice slept (center: φdst == φsrc by the copy),
// and the neighbor reads are provably skipped: the anti-trapping guards
// fire on φsrc-only predicates (pure solid ⇒ zero liquid fraction at the
// face; pure liquid ⇒ zero φ gradient) before any φdst load, so the full
// sweep takes the identical instruction path on identical φsrc inputs.

// bitsOne is the IEEE-754 bit pattern of +1.0; a simplex vertex is one
// component at exactly these bits and the rest at exactly zero bits (+0.0
// — a slice holding -0.0 stays awake, conservatively).
const bitsOne = 0x3FF0000000000000

// wakeMargin is the φ activation margin in z-slices: a φ-slice sleeps only
// when its vertex also holds this many slices to either side, so an
// approaching front wakes it before its values could differ.
// Conservatively wider than the stencil radius of 1 the predicate, which
// holds on each step's start state, strictly needs; a larger margin only
// reduces skipping. The µ rule looks exactly one slice to either side.
const wakeMargin = 2

// proxyNX caps the proxy field width: a row's first cell and several
// cells after it, so any real cell's code path is represented by a proxy
// cell.
const proxyNX = 7

// activity is the per-rank activity tracker. It lives on the rank and is
// only touched from the rank's goroutine (derivations happen at sweep
// dispatch, before any claim task is queued, so skip decisions depend on
// step-start field state only — never on Config.Parallelism).
type activity struct {
	margin int  // wakeMargin unless a test widened it before the first step
	valid  bool // slice classifications describe the current step
	carry  bool // phiPrev/muPrev describe the previous step (both derivations ran)
	// imaged: φsrc's x/y ghost ring is the boundary image, under the BCs in
	// force, of φsrc's interior. invalidate() clears it (a BC change leaves
	// the ring stale until the next fill); a ghost refresh of φsrc and every
	// step's φdst fill set it. prevImaged is its value at the previous
	// step's φ derivation.
	imaged, prevImaged bool
	// ringLocal: the rank's x/y ghost ring is filled from its own block
	// (comm.World.RingLocal), so a slice's ring is the boundary image of
	// that slice's interior.
	ringLocal bool

	// φ classification of slices [-1, nz], indexed z+1: vertex phase and
	// whether the slice (interior + x/y ghost ring) is exactly that vertex.
	vertex []int
	vOK    []bool
	// µ classification including the ghost ring, taken at µ-dispatch time
	// when the µsrc ghosts are settled in both overlap modes.
	muROK  []bool
	muRVal [][kernels.NR]float64

	phiSleep []bool // per interior slice: φ-sweep skipped this step
	muSleep  []bool // per interior slice: µ-sweep skipped this step
	phiPrev  []bool // per interior slice: φ-sweep skipped on the previous step
	muPrev   []bool // per interior slice: µ-sweep skipped on the previous step
	// keep is the φdst fill's mask: slices whose φ-sweep was skipped this
	// step and the previous one, so their x/y ghost ring already holds the
	// bytes the fill would write (honoured only on a ring-local rank).
	keep []bool
	// muKeep is the µ fill's mask: slices whose µ-sweep was skipped this
	// step on a rank whose µ x/y faces are all periodic or Neumann
	// (lateralImages), so the ring their broadcast wrote is the fill's. Under
	// OverlapMu the exchange task reads it while the rank sweeps φ, so only
	// deriveMu (after the join) and invalidate (between steps) write it.
	muKeep []bool
	// muBcast is the value a slept µ-slice is broadcast to. Until deriveMu
	// rewrites it, it holds the previous step's value: the µsrc interior of
	// every slice with muPrev set.
	muBcast [][kernels.NR]float64

	phiActive int // awake slices in the last φ derivation
	muActive  int

	proxy   *kernels.Fields
	proxySc *kernels.Scratch

	runs  [][2]int  // reusable active-run scratch
	runs1 [1][2]int // no-tracking fallback: one full-extent run
}

// ensure sizes the tracker for the rank's block (first use only).
func (a *activity) ensure(nx, nz int) {
	if a.phiSleep != nil {
		return
	}
	if a.margin == 0 {
		a.margin = wakeMargin
	}
	n := nz + 2
	a.vertex = make([]int, n)
	a.vOK = make([]bool, n)
	a.muROK = make([]bool, n)
	a.muRVal = make([][kernels.NR]float64, n)
	a.phiSleep = make([]bool, nz)
	a.muSleep = make([]bool, nz)
	a.phiPrev = make([]bool, nz)
	a.muPrev = make([]bool, nz)
	a.keep = make([]bool, nz)
	a.muKeep = make([]bool, nz)
	a.muBcast = make([][kernels.NR]float64, nz)
	a.runs = make([][2]int, 0, nz/2+2)
	pnx := nx
	if pnx > proxyNX {
		pnx = proxyNX
	}
	a.proxy = kernels.NewFields(pnx, 1, 1)
	a.proxySc = kernels.NewScratch(pnx, 1)
}

// invalidate discards the activity map and what it carries into the next
// step. Called whenever field interiors or ghost fills change outside the
// timestep protocol (window shift, restore, nucleation burst, BC change,
// re-init): frontTop trusts slept slices only while the map is valid, and
// the next derivation re-reads every slice in full.
func (a *activity) invalidate() {
	a.valid = false
	a.carry = false
	a.imaged = false
	clear(a.muKeep)
}

// invalidateActivity resets every rank's tracker.
func (s *Sim) invalidateActivity() {
	for _, r := range s.ranks {
		r.act.invalidate()
	}
}

// allBits reports whether every value in vs has exactly the bit pattern
// want.
func allBits(vs []float64, want uint64) bool {
	for _, v := range vs {
		if math.Float64bits(v) != want {
			return false
		}
	}
	return true
}

// sliceBits reports whether component c of slice z holds exactly the bit
// pattern want over the interior, the x/y ghost ring (corners included),
// or both. It reads each row once.
func sliceBits(f *grid.Field, c, z int, want uint64, interior, ring bool) bool {
	g, nx := f.G, f.NX
	y0, y1 := 0, f.NY
	if ring {
		y0, y1 = -g, f.NY+g
	}
	for y := y0; y < y1; y++ {
		row := f.Row(c, y, z)
		switch {
		case y < 0 || y >= f.NY || interior && ring: // the whole row
		case interior:
			row = row[g : g+nx]
		default: // the x ghosts of an interior row
			if !allBits(row[:g], want) {
				return false
			}
			row = row[g+nx:]
		}
		if !allBits(row, want) {
			return false
		}
	}
	return true
}

// phiAt reports whether slice z (ghost slices -1 and nz allowed) holds
// simplex vertex v over the interior, the x/y ghost ring, or both.
func phiAt(f *grid.Field, z, v int, interior, ring bool) bool {
	for c := 0; c < f.NComp; c++ {
		want := uint64(0)
		if c == v {
			want = bitsOne
		}
		if !sliceBits(f, c, z, want, interior, ring) {
			return false
		}
	}
	return true
}

// classifyPhi reports whether slice z (ghost slices -1 and nz allowed) is
// exactly one simplex vertex over the interior and the full x/y ghost ring
// (corners included), and which phase.
func classifyPhi(f *grid.Field, z int) (vertex int, ok bool) {
	for c := 0; c < f.NComp; c++ {
		if math.Float64bits(f.At(c, 0, 0, z)) == bitsOne {
			return c, phiAt(f, z, c, true, true)
		}
	}
	return -1, false
}

// muAt reports whether slice z holds exactly val over the interior, the
// x/y ghost ring, or both.
func muAt(f *grid.Field, z int, val *[kernels.NR]float64, interior, ring bool) bool {
	for k := 0; k < f.NComp; k++ {
		if !sliceBits(f, k, z, math.Float64bits(val[k]), interior, ring) {
			return false
		}
	}
	return true
}

// classifyMu reports whether slice z is bitwise-uniform per component,
// over the interior only or including the x/y ghost ring, and the value.
func classifyMu(f *grid.Field, z int, ring bool) (val [kernels.NR]float64, ok bool) {
	for k := 0; k < f.NComp; k++ {
		val[k] = f.At(k, 0, 0, z)
	}
	return val, muAt(f, z, &val, true, ring)
}

// nanMu is the φ proxy's µ for a slice whose µ is not uniform: any use of
// it that reaches the φ output makes the output NaN.
var nanMu = [kernels.NR]float64{math.NaN(), math.NaN()}

// fillProxy loads the proxy fields with the uniform state of a candidate
// slice: φ at the vertex in both buffers (a slept φ-slice has dst == src),
// µ at the slice value.
func (a *activity) fillProxy(vertex int, mu *[kernels.NR]float64) {
	for c := 0; c < kernels.NP; c++ {
		v := 0.0
		if c == vertex {
			v = 1
		}
		a.proxy.PhiSrc.FillComp(c, v)
		a.proxy.PhiDst.FillComp(c, v)
	}
	for k := 0; k < kernels.NR; k++ {
		a.proxy.MuSrc.FillComp(k, mu[k])
		a.proxy.MuDst.FillComp(k, 0)
	}
}

// phiProxySleeps runs the φ-kernel on the proxy of slice z, at that
// slice's analytic temperature, and reports whether the uniform state is an
// exact fixed point (dst bits == src bits in every proxy cell — every lane
// and the scalar tail).
func (a *activity) phiProxySleeps(r *rank, z, vertex int, mu *[kernels.NR]float64) bool {
	a.fillProxy(vertex, mu)
	ctx := r.ctx
	ctx.ZOff += z
	kernels.PhiSweepRange(&ctx, a.proxy, a.proxySc, 0, 1)
	return phiAt(a.proxy.PhiDst, 0, vertex, true, false)
}

// muProxyValue runs the µ-kernel on the proxy of slice z, whose µ z-ghost
// slices hold the values of slices z-1 and z+1, and returns the uniform
// output value; ok is false when the proxy cells disagree, which keeps the
// slice awake. muRVal[z : z+3] must hold the three slices' values.
func (a *activity) muProxyValue(r *rank, z, vertex int) (out [kernels.NR]float64, ok bool) {
	a.fillProxy(vertex, &a.muRVal[z+1])
	fillSlice(a.proxy.MuSrc, -1, &a.muRVal[z])
	fillSlice(a.proxy.MuSrc, 1, &a.muRVal[z+2])
	ctx := r.ctx
	ctx.ZOff += z
	kernels.MuSweepRange(&ctx, a.proxy, a.proxySc, 0, 1)
	return classifyMu(a.proxy.MuDst, 0, false)
}

// marginRange clips slice z's wake margin to the classified slices [-1, nz].
func (a *activity) marginRange(z, nz int) (lo, hi int) {
	return max(z-a.margin, -1), min(z+a.margin, nz)
}

// lateralImages reports whether every x/y face of a rank's boundary set
// fills its ghosts from the slice's own cells (periodic or Neumann), so a
// uniform slice's ring is its own value. A face to another rank is BCNone
// (grid.Topology.BlockBCs), so only a ring-local rank qualifies.
func lateralImages(bcs *grid.BoundarySet) bool {
	for f := grid.XMin; f <= grid.YMax; f++ {
		if k := bcs[f].Kind; k != grid.BCPeriodic && k != grid.BCNeumann {
			return false
		}
	}
	return true
}

// beginStep moves the previous step's sleep sets into phiPrev/muPrev, or
// clears those when the previous step did not run both derivations.
func (a *activity) beginStep() {
	a.phiSleep, a.phiPrev = a.phiPrev, a.phiSleep
	a.muSleep, a.muPrev = a.muPrev, a.muSleep
	if !a.carry {
		clear(a.phiPrev)
		clear(a.muPrev)
	}
	a.carry = false
}

// derivePhi classifies every slice and decides the step's φ-sleep set. Runs
// on the rank goroutine at φ-dispatch, before any claim task is queued.
// Under OverlapMu a µsrc ghost exchange may be in flight here; only µ
// interiors are read (the φ-kernel never reads µ ghosts).
func (a *activity) derivePhi(s *Sim, r *rank) {
	f := r.fields
	nz := f.PhiSrc.NZ
	a.ensure(f.PhiSrc.NX, nz)
	a.beginStep()
	a.ringLocal = s.World.RingLocal(r.id)
	// On a ring-local rank a carried slice's ring is the boundary image of
	// the vertex it holds, and so was the ring verified last step when that
	// ring was an image too: the ring cannot have changed.
	ringKept := a.ringLocal && a.prevImaged
	a.prevImaged = a.imaged
	for z := -1; z <= nz; z++ {
		if z >= 0 && z < nz && a.phiPrev[z] {
			if !ringKept { // else vOK[z+1] holds from the step the slice slept
				a.vOK[z+1] = phiAt(f.PhiSrc, z, a.vertex[z+1], false, true)
			}
		} else {
			a.vertex[z+1], a.vOK[z+1] = classifyPhi(f.PhiSrc, z)
		}
	}
	active := 0
	for z := 0; z < nz; z++ {
		ok := a.vOK[z+1]
		if ok {
			v := a.vertex[z+1]
			lo, hi := a.marginRange(z, nz)
			for j := lo; j <= hi; j++ {
				if !a.vOK[j+1] || a.vertex[j+1] != v {
					ok = false
					break
				}
			}
		}
		if ok {
			// The proxy's µ: carried or classified when uniform, else NaN.
			mu, uniform := &a.muBcast[z], a.muPrev[z]
			var val [kernels.NR]float64
			if !uniform {
				val, uniform = classifyMu(f.MuSrc, z, false)
				mu = &val
			}
			if !uniform {
				mu = &nanMu
			}
			ok = a.phiProxySleeps(r, z, a.vertex[z+1], mu)
		}
		a.phiSleep[z] = ok
		a.keep[z] = ok && a.phiPrev[z]
		if !ok {
			active++
		}
	}
	a.phiActive = active
	a.valid = true
}

// deriveMu decides the step's µ-sleep set and the µ fill's mask. Runs at
// µ-dispatch, after the µsrc ghosts settled in both overlap modes, so the
// classification may include the ghost ring. µ-sleep requires the φ-slice
// to have slept this step (the µ-kernel's φdst center read then equals
// φsrc) plus bitwise µ uniformity within each of slices z-1, z and z+1.
func (a *activity) deriveMu(r *rank) {
	if !a.valid {
		return
	}
	f := r.fields
	nz := f.MuSrc.NZ
	a.carry = true
	if a.phiActive == nz {
		clear(a.muSleep)
		clear(a.muKeep)
		a.muActive = nz
		return
	}
	for z := -1; z <= nz; z++ {
		switch {
		case z < 0 || z >= nz || !a.muPrev[z]:
			a.muRVal[z+1], a.muROK[z+1] = classifyMu(f.MuSrc, z, true)
		case a.muKeep[z]: // broadcast with its ring, which the fill kept
			a.muRVal[z+1], a.muROK[z+1] = a.muBcast[z], true
		default:
			a.muRVal[z+1] = a.muBcast[z]
			a.muROK[z+1] = muAt(f.MuSrc, z, &a.muBcast[z], false, true)
		}
	}
	images := lateralImages(&r.muBCs)
	active := 0
	for z := 0; z < nz; z++ {
		ok := a.phiSleep[z] && a.muROK[z] && a.muROK[z+1] && a.muROK[z+2]
		if ok {
			a.muBcast[z], ok = a.muProxyValue(r, z, a.vertex[z+1])
		}
		a.muSleep[z] = ok
		a.muKeep[z] = ok && images
		if !ok {
			active++
		}
	}
	a.muActive = active
}

// prepareActivity derives (or reuses) the sleep set for one sweep op and
// returns it, or nil when tracking is disabled or not yet established.
func (s *Sim) prepareActivity(r *rank, op sweepOp) []bool {
	if s.Cfg.DisableActiveSweep {
		return nil
	}
	a := &r.act
	if op == opPhi {
		a.derivePhi(s, r)
		return a.phiSleep
	}
	a.deriveMu(r)
	if !a.valid {
		return nil
	}
	return a.muSleep
}

// activeRuns converts a sleep set into maximal awake [z0,z1) runs, reusing
// the tracker's scratch. A nil sleep set yields one full-extent run.
func (a *activity) activeRuns(sleep []bool, nz int) [][2]int {
	if sleep == nil {
		a.runs1[0] = [2]int{0, nz}
		return a.runs1[:]
	}
	runs := a.runs[:0]
	start := -1
	for z := 0; z < nz; z++ {
		switch {
		case !sleep[z] && start < 0:
			start = z
		case sleep[z] && start >= 0:
			runs = append(runs, [2]int{start, z})
			start = -1
		}
	}
	if start >= 0 {
		runs = append(runs, [2]int{start, nz})
	}
	a.runs = runs
	return runs
}

// applySkips realizes the skipped sweeps on the rank goroutine: a slept
// φ-slice copies src→dst (the proxy proved the kernel is an exact fixed
// point there), unless it slept on the previous step too, when dst already
// equals src; a slept µ-slice broadcasts the proxy output (which carries
// the uniform frozen-gradient drift) over its interior and x/y ghost ring.
func (s *Sim) applySkips(r *rank, op sweepOp, sleep []bool) {
	if sleep == nil {
		return
	}
	a := &r.act
	f := r.fields
	for z, slept := range sleep {
		if !slept {
			continue
		}
		if op == opPhi {
			if !a.phiPrev[z] {
				copySliceInterior(f.PhiDst, f.PhiSrc, z)
			}
		} else {
			fillSlice(f.MuDst, z, &a.muBcast[z])
		}
	}
}

// copySliceInterior copies the interior of slice z between same-shape
// fields row by row (contiguous in x).
func copySliceInterior(dst, src *grid.Field, z int) {
	for c := 0; c < src.NComp; c++ {
		for y := 0; y < src.NY; y++ {
			copy(dst.Row(c, y, z)[dst.G:dst.G+dst.NX], src.Row(c, y, z)[src.G:])
		}
	}
}

// fillSlice fills slice z (ghost slices allowed), interior and x/y ghost
// ring, with one value per component: per component one contiguous span.
// It broadcasts a slept µ-slice; the fill then keeps the ring (muKeep) or
// overwrites it.
func fillSlice(f *grid.Field, z int, val *[kernels.NR]float64) {
	n := (f.NX + 2*f.G) * (f.NY + 2*f.G)
	for k := 0; k < f.NComp; k++ {
		i := f.Idx(k, -f.G, -f.G, z)
		span := f.Data[i : i+n]
		for j := range span {
			span[j] = val[k]
		}
	}
}

// ActiveFraction returns the fraction of slice-sweeps (φ and µ combined)
// the last completed step actually computed, aggregated over ranks: 1.0
// means a full sweep everywhere (or tracking disabled / no step taken),
// small values mean the domain is dominated by sleeping bulk.
func (s *Sim) ActiveFraction() float64 {
	if s.Cfg.DisableActiveSweep {
		return 1
	}
	total, active := 0, 0
	for _, r := range s.ranks {
		if !r.act.valid {
			return 1
		}
		nz := r.fields.PhiSrc.NZ
		total += 2 * nz
		active += r.act.phiActive + r.act.muActive
	}
	if total == 0 {
		return 1
	}
	return float64(active) / float64(total)
}
