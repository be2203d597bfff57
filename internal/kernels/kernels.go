package kernels

// kernels.go is the public dispatch surface. The solver runs only the
// production kernels, through the *Range forms restricted to the z-slab
// [z0,z1), the unit of intra-block parallelism: disjoint slabs write
// disjoint destination slices, so multiple workers (each with its own
// Scratch) may sweep one block concurrently. At a slab's first slice the
// staggered z-buffers are invalid, so the production kernels recompute
// that slice's low z-face fluxes instead of reusing a neighbor worker's
// buffer — bitwise identical to the serial sweep because the buffered
// value is exactly the recomputed one. Neither Range form lets its
// arguments escape, so a caller may pass a stack Ctx without allocating.
// PhiSweep and MuSweep sweep a whole block with either variant; they are
// how the oracle is reached, as the reference the production kernels are
// checked and timed against.

// clampRange clips [z0,z1) to the block's interior [0,nz).
func clampRange(nz, z0, z1 int) (int, int) {
	if z0 < 0 {
		z0 = 0
	}
	if z1 > nz {
		z1 = nz
	}
	return z0, z1
}

// PhiSweep updates f.PhiDst from f.PhiSrc/f.MuSrc with the selected variant.
func PhiSweep(ctx *Ctx, f *Fields, sc *Scratch, v Variant) {
	if v == VarGeneral {
		phiSweepGeneral(ctx, f, 0, f.PhiSrc.NZ)
		return
	}
	PhiSweepRange(ctx, f, sc, 0, f.PhiSrc.NZ)
}

// PhiSweepRange runs the production φ-kernel over the z-slab [z0,z1).
func PhiSweepRange(ctx *Ctx, f *Fields, sc *Scratch, z0, z1 int) {
	z0, z1 = clampRange(f.PhiSrc.NZ, z0, z1)
	if z0 < z1 {
		phiSweepProd(ctx, f, sc, z0, z1)
	}
}

// MuSweep updates f.MuDst (the fused Algorithm-1 µ-kernel, including the
// anti-trapping current) with the selected variant.
func MuSweep(ctx *Ctx, f *Fields, sc *Scratch, v Variant) {
	if v == VarGeneral {
		muSweepGeneral(ctx, f, 0, f.MuSrc.NZ)
		return
	}
	MuSweepRange(ctx, f, sc, 0, f.MuSrc.NZ)
}

// MuSweepRange runs the production µ-kernel over the z-slab [z0,z1).
func MuSweepRange(ctx *Ctx, f *Fields, sc *Scratch, z0, z1 int) {
	z0, z1 = clampRange(f.MuSrc.NZ, z0, z1)
	if z0 < z1 {
		muSweepProd(ctx, f, sc, true, z0, z1)
	}
}
