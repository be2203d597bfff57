// Package grid provides the block-structured grid substrate underlying the
// solver, modeled after the waLBerla framework the paper builds on: the
// simulation domain is partitioned into equally sized blocks, each holding a
// regular grid extended by ghost layers for communication, with per-face
// boundary conditions.
//
// Fields are stored structure-of-arrays (SoA), the outcome of the paper's
// data-layout study (§5.1.1). The µ-kernel prefers SoA because it updates
// four consecutive cells of one component at a time; the cellwise φ-kernel
// would load one cell's four phases as a vector from AoS. The paper picks
// SoA for φ as well because the µ-kernel reads 38 φ values per cell against
// the φ-kernel's 7. With one layout, an x-row of one component is one
// contiguous run of memory: Field.Row hands it out, and every copy of field
// data outside the kernels (halo packing, checkpoints, resharding, gathers)
// moves whole rows through it. Only this package knows where a row lives.
package grid

import (
	"fmt"
	"math"
)

// Layout names the memory layout of a multi-component Field. SoA is the
// only one; NewField takes it so a caller states the layout it relies on.
type Layout int

// SoA stores each component as its own contiguous sub-array
// (component-major), so one component of consecutive cells is contiguous.
const SoA Layout = 0

// Field is a regular grid of NComp-component double-precision cells with a
// ghost layer of width G on every side, stored SoA. Interior cells are
// addressed with x ∈ [0,NX), y ∈ [0,NY), z ∈ [0,NZ); ghost cells with
// coordinates in [-G, N+G).
type Field struct {
	NX, NY, NZ int // interior extents
	NComp      int // components per cell
	G          int // ghost layer width

	sx, sy, sz int // allocated extents including ghosts
	cellStride int // distance between components (= sx*sy*sz)
	Data       []float64
}

// NewField allocates a zero-initialized field. lay must be SoA.
func NewField(nx, ny, nz, ncomp, ghost int, lay Layout) *Field {
	if nx <= 0 || ny <= 0 || nz <= 0 || ncomp <= 0 || ghost < 0 {
		panic(fmt.Sprintf("grid: invalid field extents %dx%dx%d comp=%d ghost=%d", nx, ny, nz, ncomp, ghost))
	}
	if lay != SoA {
		panic(fmt.Sprintf("grid: unsupported field layout %d", int(lay)))
	}
	f := &Field{
		NX: nx, NY: ny, NZ: nz,
		NComp: ncomp, G: ghost,
		sx: nx + 2*ghost, sy: ny + 2*ghost, sz: nz + 2*ghost,
	}
	f.cellStride = f.sx * f.sy * f.sz
	f.Data = make([]float64, f.cellStride*ncomp)
	return f
}

// Clone returns a deep copy of f.
func (f *Field) Clone() *Field {
	c := *f
	c.Data = make([]float64, len(f.Data))
	copy(c.Data, f.Data)
	return &c
}

// sameShape reports whether g has f's extents, component count and ghost
// width.
func (f *Field) sameShape(g *Field) bool {
	return f.NX == g.NX && f.NY == g.NY && f.NZ == g.NZ && f.NComp == g.NComp && f.G == g.G
}

// CopyFrom copies all data (including ghosts) from src, which must have
// identical shape.
func (f *Field) CopyFrom(src *Field) {
	if !f.sameShape(src) {
		panic("grid: CopyFrom shape mismatch")
	}
	copy(f.Data, src.Data)
}

// Idx returns the flat index of component c at cell (x,y,z). Coordinates may
// lie in the ghost region.
func (f *Field) Idx(c, x, y, z int) int {
	return c*f.cellStride + ((z+f.G)*f.sy+y+f.G)*f.sx + x + f.G
}

// Row returns the ghost-inclusive x-row of component c at (y,z): element
// x+G is cell (x,y,z) for x ∈ [-G, NX+G). The slice aliases Data, and its
// capacity ends with the row, so an overrun panics instead of reading the
// next row.
func (f *Field) Row(c, y, z int) []float64 {
	i := f.Idx(c, -f.G, y, z)
	return f.Data[i : i+f.sx : i+f.sx]
}

// At returns component c at cell (x,y,z).
func (f *Field) At(c, x, y, z int) float64 { return f.Data[f.Idx(c, x, y, z)] }

// Set stores v in component c at cell (x,y,z).
func (f *Field) Set(c, x, y, z int, v float64) { f.Data[f.Idx(c, x, y, z)] = v }

// Fill sets every cell (including ghosts) of every component to v.
func (f *Field) Fill(v float64) {
	for i := range f.Data {
		f.Data[i] = v
	}
}

// FillComp sets every cell (including ghosts) of component c to v.
func (f *Field) FillComp(c int, v float64) {
	comp := f.Data[c*f.cellStride : (c+1)*f.cellStride]
	for i := range comp {
		comp[i] = v
	}
}

// Swap exchanges the storage of f and g, which must have identical shape.
// This implements the source/destination field swap at the end of each
// timestep (Algorithm 1, line 7).
func (f *Field) Swap(g *Field) {
	if !f.sameShape(g) {
		panic("grid: Swap shape mismatch")
	}
	f.Data, g.Data = g.Data, f.Data
}

// Interior iterates over all interior cells in z-outermost order (the loop
// order the paper chooses so temperature-dependent terms can be precomputed
// per z-slice) and calls fn for each.
func (f *Field) Interior(fn func(x, y, z int)) {
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			for x := 0; x < f.NX; x++ {
				fn(x, y, z)
			}
		}
	}
}

// InteriorEqual reports whether the interior regions of f and g agree within
// absolute tolerance tol in every component, and returns the max difference.
func (f *Field) InteriorEqual(g *Field, tol float64) (bool, float64) {
	if f.NX != g.NX || f.NY != g.NY || f.NZ != g.NZ || f.NComp != g.NComp {
		return false, math.Inf(1)
	}
	maxd := 0.0
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			for x := 0; x < f.NX; x++ {
				for c := 0; c < f.NComp; c++ {
					d := math.Abs(f.At(c, x, y, z) - g.At(c, x, y, z))
					if d > maxd {
						maxd = d
					}
				}
			}
		}
	}
	return maxd <= tol, maxd
}

// NumInterior returns the number of interior cells.
func (f *Field) NumInterior() int { return f.NX * f.NY * f.NZ }

// HasNaN reports whether any interior value is NaN or Inf.
func (f *Field) HasNaN() bool {
	bad := false
	f.Interior(func(x, y, z int) {
		for c := 0; c < f.NComp; c++ {
			v := f.At(c, x, y, z)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad = true
			}
		}
	})
	return bad
}

// ShiftZDown shifts the interior contents down by `cells` in z: interior
// slice z takes the former contents of z+cells; the topmost `cells` slices
// are filled per component from fillVals. This implements the moving-window
// advance. Ghost layers are left untouched (they are refreshed by the next
// communication + boundary handling). Rows move with copy, whose memmove
// semantics make the overlapping downward shift safe.
func (f *Field) ShiftZDown(cells int, fillVals []float64) {
	if cells <= 0 {
		return
	}
	if cells > f.NZ {
		cells = f.NZ
	}
	g := f.G
	for c := 0; c < f.NComp; c++ {
		for z := 0; z < f.NZ; z++ {
			for y := 0; y < f.NY; y++ {
				dst := f.Row(c, y, z)[g : g+f.NX]
				if z < f.NZ-cells {
					copy(dst, f.Row(c, y, z+cells)[g:])
					continue
				}
				for x := range dst {
					dst[x] = fillVals[c]
				}
			}
		}
	}
}
