package kernels

import (
	"fmt"
	"sync"
	"testing"
)

// parallel_test.go checks the slab-range entry points behind the parallel
// sweep engine: for both variants, a sweep cut into 2 or 4 z-slabs — each
// slab with its own Scratch, run both serially and concurrently — must
// reproduce the serial sweep bit-for-bit. This covers the production
// kernels' seam handling: a slab's first slice must recompute its low
// z-face fluxes instead of reusing another worker's staggered buffer. The
// oracle has no public slab form; its rows call the unexported sweeps.

// phiRange sweeps φ over the slab [z0,z1) with variant v.
func phiRange(ctx *Ctx, f *Fields, sc *Scratch, v Variant, z0, z1 int) {
	if v == VarGeneral {
		phiSweepGeneral(ctx, f, z0, z1)
		return
	}
	PhiSweepRange(ctx, f, sc, z0, z1)
}

// muRange sweeps µ over the slab [z0,z1) with variant v.
func muRange(ctx *Ctx, f *Fields, sc *Scratch, v Variant, z0, z1 int) {
	if v == VarGeneral {
		muSweepGeneral(ctx, f, z0, z1)
		return
	}
	MuSweepRange(ctx, f, sc, z0, z1)
}

// slabBounds cuts [0,nz) into n even slabs, the same partition runSweep uses.
func slabBounds(nz, n, i int) (int, int) {
	return i * nz / n, (i + 1) * nz / n
}

// sweepSlabs runs fn once per slab with a fresh Scratch, concurrently when
// parallel is set (exercising the disjoint-slab write guarantee under
// -race).
func sweepSlabs(nx, ny, nz, slabs int, parallel bool, fn func(sc *Scratch, z0, z1 int)) {
	if !parallel {
		for i := 0; i < slabs; i++ {
			z0, z1 := slabBounds(nz, slabs, i)
			fn(NewScratch(nx, ny), z0, z1)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < slabs; i++ {
		z0, z1 := slabBounds(nz, slabs, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(NewScratch(nx, ny), z0, z1)
		}()
	}
	wg.Wait()
}

func TestPhiSweepRangeMatchesSerial(t *testing.T) {
	const nx, ny, nz = 12, 8, 16
	p := testParams(nz)
	ctx := &Ctx{P: p}

	for _, v := range Variants {
		ref := setupInterface(nx, ny, nz, p)
		PhiSweep(ctx, ref, NewScratch(nx, ny), v)

		for _, slabs := range []int{2, 4} {
			for _, parallel := range []bool{false, true} {
				f := setupInterface(nx, ny, nz, p)
				sweepSlabs(nx, ny, nz, slabs, parallel, func(sc *Scratch, z0, z1 int) {
					phiRange(ctx, f, sc, v, z0, z1)
				})
				ok, maxd := f.PhiDst.InteriorEqual(ref.PhiDst, 0)
				if !ok {
					t.Errorf("%v, %d slabs (parallel=%v): φ differs from serial by %g", v, slabs, parallel, maxd)
				}
			}
		}
	}
}

func TestMuSweepRangeMatchesSerial(t *testing.T) {
	const nx, ny, nz = 12, 8, 16
	p := testParams(nz)
	ctx := &Ctx{P: p}

	mk := func() *Fields {
		f := setupInterface(nx, ny, nz, p)
		PhiSweep(ctx, f, NewScratch(nx, ny), VarShortcut)
		testBCsApply(f.PhiDst)
		return f
	}

	for _, v := range Variants {
		ref := mk()
		MuSweep(ctx, ref, NewScratch(nx, ny), v)

		for _, slabs := range []int{2, 4} {
			for _, parallel := range []bool{false, true} {
				f := mk()
				sweepSlabs(nx, ny, nz, slabs, parallel, func(sc *Scratch, z0, z1 int) {
					muRange(ctx, f, sc, v, z0, z1)
				})
				ok, maxd := f.MuDst.InteriorEqual(ref.MuDst, 0)
				if !ok {
					t.Errorf("%v, %d slabs (parallel=%v): µ differs from serial by %g", v, slabs, parallel, maxd)
				}
			}
		}
	}
}

// The production slab entry points keep their arguments off the heap: a
// Ctx copied onto the caller's stack for each call (as the solver's
// activity proxy does per candidate slice) costs no allocation. This is
// the test form of `go build -gcflags=-m` listing no leaking param on
// either Range function.
func TestSweepRangeAllocFree(t *testing.T) {
	const nx, ny, nz = 8, 6, 6
	p := testParams(nz)
	base := Ctx{P: p}
	f := setupInterface(nx, ny, nz, p)
	sc := NewScratch(nx, ny)
	phi := testing.AllocsPerRun(5, func() {
		ctx := base
		ctx.ZOff++
		PhiSweepRange(&ctx, f, sc, 0, nz)
	})
	mu := testing.AllocsPerRun(5, func() {
		ctx := base
		ctx.ZOff++
		MuSweepRange(&ctx, f, sc, 0, nz)
	})
	if phi != 0 || mu != 0 {
		t.Errorf("PhiSweepRange allocates %.1f, MuSweepRange %.1f objects per call, want 0", phi, mu)
	}
}

func TestSweepRangeClamping(t *testing.T) {
	// Out-of-bounds and empty ranges are clamped / no-ops.
	const nx, ny, nz = 8, 6, 10
	p := testParams(nz)
	ctx := &Ctx{P: p}

	ref := setupInterface(nx, ny, nz, p)
	PhiSweep(ctx, ref, NewScratch(nx, ny), VarShortcut)

	f := setupInterface(nx, ny, nz, p)
	PhiSweepRange(ctx, f, NewScratch(nx, ny), -3, nz+5)
	PhiSweepRange(ctx, f, NewScratch(nx, ny), 4, 4) // empty: no-op
	ok, maxd := f.PhiDst.InteriorEqual(ref.PhiDst, 0)
	if !ok {
		t.Errorf("clamped range differs from full sweep by %g", maxd)
	}
}

func TestSweepRangeUnevenSlabs(t *testing.T) {
	// Slab counts that do not divide nz produce uneven partitions; the
	// union must still cover every slice exactly once.
	const nx, ny, nz = 8, 6, 13
	p := testParams(nz)
	ctx := &Ctx{P: p}

	for _, slabs := range []int{3, 5} {
		for _, v := range Variants {
			t.Run(fmt.Sprintf("slabs%d/%v", slabs, v), func(t *testing.T) {
				ref := setupInterface(nx, ny, nz, p)
				PhiSweep(ctx, ref, NewScratch(nx, ny), v)
				f := setupInterface(nx, ny, nz, p)
				sweepSlabs(nx, ny, nz, slabs, true, func(sc *Scratch, z0, z1 int) {
					phiRange(ctx, f, sc, v, z0, z1)
				})
				ok, maxd := f.PhiDst.InteriorEqual(ref.PhiDst, 0)
				if !ok {
					t.Errorf("φ differs by %g", maxd)
				}
			})
		}
	}
}
