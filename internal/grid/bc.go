package grid

import "fmt"

// Face identifies one of the six block faces. Faces are numbered axis by
// axis, low face first, so Axis and IsMin are arithmetic on the value.
type Face int

const (
	// XMin is the low-x face.
	XMin Face = iota
	// XMax is the high-x face.
	XMax
	// YMin is the low-y face.
	YMin
	// YMax is the high-y face.
	YMax
	// ZMin is the low-z face: the bottom wall in the paper's setup.
	ZMin
	// ZMax is the high-z face: the top wall in the paper's setup.
	ZMax
	// NumFaces is the number of faces, for sizing per-face arrays.
	NumFaces
)

func (f Face) String() string {
	switch f {
	case XMin:
		return "x-"
	case XMax:
		return "x+"
	case YMin:
		return "y-"
	case YMax:
		return "y+"
	case ZMin:
		return "z-"
	case ZMax:
		return "z+"
	}
	return fmt.Sprintf("Face(%d)", int(f))
}

// Opposite returns the opposing face.
func (f Face) Opposite() Face {
	switch f {
	case XMin:
		return XMax
	case XMax:
		return XMin
	case YMin:
		return YMax
	case YMax:
		return YMin
	case ZMin:
		return ZMax
	default:
		return ZMin
	}
}

// Axis returns 0, 1 or 2 for x, y or z faces.
func (f Face) Axis() int { return int(f) / 2 }

// IsMin reports whether this is the low face of its axis.
func (f Face) IsMin() bool { return int(f)%2 == 0 }

// BCKind enumerates boundary condition types. The paper's setup (Fig. 2)
// uses periodic boundaries laterally, a Neumann (no-flux) condition at the
// top and a Dirichlet condition at the bottom.
type BCKind int

const (
	// BCNone leaves the ghost layer untouched (an interior face handled
	// by communication).
	BCNone BCKind = iota
	// BCPeriodic wraps the ghost layer around to the opposite side of
	// the same field. Only valid when the block spans the whole domain
	// along that axis; in multi-block runs periodicity is realized by
	// the communication layer instead.
	BCPeriodic
	// BCNeumann implements a zero-gradient condition by mirroring the
	// outermost interior slice into the ghost layer.
	BCNeumann
	// BCDirichlet fixes the ghost layer directly to per-component
	// values. Phase-field ghosts must stay on the Gibbs simplex, so the
	// prescribed vector itself is written (no linear extrapolation).
	BCDirichlet
)

func (k BCKind) String() string {
	switch k {
	case BCNone:
		return "none"
	case BCPeriodic:
		return "periodic"
	case BCNeumann:
		return "neumann"
	case BCDirichlet:
		return "dirichlet"
	}
	return fmt.Sprintf("BCKind(%d)", int(k))
}

// BC describes the boundary condition on one face.
type BC struct {
	Kind   BCKind
	Values []float64 // Dirichlet face values per component (nil otherwise)
}

// BoundarySet holds one BC per face.
type BoundarySet [NumFaces]BC

// AllPeriodic returns a boundary set with periodic conditions on all faces.
func AllPeriodic() BoundarySet {
	var b BoundarySet
	for i := range b {
		b[i] = BC{Kind: BCPeriodic}
	}
	return b
}

// AllNeumann returns a boundary set with zero-gradient conditions on all faces.
func AllNeumann() BoundarySet {
	var b BoundarySet
	for i := range b {
		b[i] = BC{Kind: BCNeumann}
	}
	return b
}

// DirectionalSolidification returns the paper's production boundary set
// (Fig. 2): periodic in x and y, Dirichlet at the bottom (solid feed,
// per-component values botVals) and Neumann at the top (liquid).
func DirectionalSolidification(botVals []float64) BoundarySet {
	var b BoundarySet
	b[XMin] = BC{Kind: BCPeriodic}
	b[XMax] = BC{Kind: BCPeriodic}
	b[YMin] = BC{Kind: BCPeriodic}
	b[YMax] = BC{Kind: BCPeriodic}
	b[ZMin] = BC{Kind: BCDirichlet, Values: botVals}
	b[ZMax] = BC{Kind: BCNeumann}
	return b
}

// SetFace installs kind and Dirichlet values on face f in place, reusing
// the existing Values backing array when it has capacity. Reuse matters for
// time-varying boundary conditions: the per-rank boundary sets derived by
// BlockGrid.BlockBCs share the domain set's Values backing, so ramping wall
// values in place propagates to every rank without re-deriving or
// reallocating — and a steady BC ramp allocates nothing per step. The
// returned flag reports whether the backing array was replaced (the caller
// must then re-derive any sets that shared the old one).
func (b *BoundarySet) SetFace(f Face, kind BCKind, vals []float64) (realloc bool) {
	bc := &b[f]
	bc.Kind = kind
	if vals == nil {
		return false
	}
	if cap(bc.Values) < len(vals) {
		bc.Values = make([]float64, len(vals))
		realloc = true
	}
	bc.Values = bc.Values[:len(vals)]
	copy(bc.Values, vals)
	return realloc
}

// Clone returns a deep copy of the boundary set (Values backing included).
func (b BoundarySet) Clone() BoundarySet {
	out := b
	for f := range out {
		if b[f].Values != nil {
			out[f].Values = append([]float64(nil), b[f].Values...)
		}
	}
	return out
}

// Validate checks that the set can be applied to an ncomp-component field:
// every Dirichlet face must prescribe exactly one value per component
// (Apply indexes Values by component and would otherwise panic mid-sweep).
func (b *BoundarySet) Validate(ncomp int) error {
	for f := Face(0); f < NumFaces; f++ {
		if b[f].Kind == BCDirichlet && len(b[f].Values) != ncomp {
			return fmt.Errorf("grid: %v Dirichlet BC carries %d values for an %d-component field",
				f, len(b[f].Values), ncomp)
		}
	}
	return nil
}

// Apply applies every non-BCNone face condition to f's ghost layers.
// It fills the full ghost shell for the given axis extents including edge
// and corner regions by sweeping the axes in order x, y, z with progressively
// extended transverse ranges, mirroring the staged halo fill used by the
// communication layer.
func (b *BoundarySet) Apply(f *Field) {
	for face := Face(0); face < NumFaces; face++ {
		bc := b[face]
		if bc.Kind == BCNone {
			continue
		}
		applyFace(f, face, bc)
	}
}

// applyFace fills face's ghost layers of every component of f, one ghost
// layer at a time. The transverse extent grows with the axis so the staged
// sweep reaches edges and corners: x faces cover interior y and z, y faces
// add the x ghosts (whole rows), z faces add the x and y ghosts.
func applyFace(f *Field, face Face, bc BC) {
	g := f.G
	n := [3]int{f.NX, f.NY, f.NZ}[face.Axis()]
	for d := 1; d <= g; d++ {
		// ghost is the layer written; src the interior layer a Neumann
		// face mirrors, and a periodic face wraps from the opposite side.
		ghost, src := -d, d-1
		if !face.IsMin() {
			ghost, src = n-1+d, n-d
		}
		if bc.Kind == BCPeriodic {
			src = n - 1 - src
		}
		for c := 0; c < f.NComp; c++ {
			fill := func(dst, from []float64) {
				if bc.Kind != BCDirichlet {
					copy(dst, from)
					return
				}
				for i := range dst {
					dst[i] = bc.Values[c]
				}
			}
			switch face.Axis() {
			case 0:
				for z := 0; z < f.NZ; z++ {
					for y := 0; y < f.NY; y++ {
						row := f.Row(c, y, z)
						fill(row[g+ghost:g+ghost+1], row[g+src:])
					}
				}
			case 1:
				for z := 0; z < f.NZ; z++ {
					fill(f.Row(c, ghost, z), f.Row(c, src, z))
				}
			default:
				for y := -g; y < f.NY+g; y++ {
					fill(f.Row(c, y, ghost), f.Row(c, y, src))
				}
			}
		}
	}
}
