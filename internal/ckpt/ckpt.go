// Package ckpt implements checkpointing (§3.2): the complete simulation
// state — four φ values and two µ values per cell — is written to disk in
// single precision ("checkpoints use only single precision to save disk
// space and I/O bandwidth" while all computation is double precision), with
// a versioned header carrying the decomposition and time-stepping state
// needed for restart.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// Magic identifies checkpoint files; Version the current header layout.
// Versions 3 and 4 share one header layout: version 3 stores the fields in
// the paper's single precision, version 4 in full double precision — the
// lossless form the job daemon uses for preemption snapshots, where the
// resumed trajectory must be bit-identical to an uninterrupted run. The
// version-1 and version-2 layouts (no writer has emitted them since version
// 3) are no longer readable.
const (
	Magic    = 0x50464350 // "PFCP"
	Version3 = 3
	Version4 = 4
	Version  = Version3
)

// Precision selects the on-disk field encoding.
type Precision int

const (
	// Float32 is the paper's disk format (§3.2): "checkpoints use only
	// single precision to save disk space and I/O bandwidth".
	Float32 Precision = iota
	// Float64 is the lossless preemption-snapshot format: save + restore
	// round-trips every field bit-exactly, so a preempted simulation
	// resumes bit-identical to one that was never interrupted.
	Float64
)

func (p Precision) String() string {
	if p == Float64 {
		return "float64"
	}
	return "float32"
}

// MaxBCComps is the widest per-face Dirichlet payload the fixed-width BC
// entries can carry: the φ field prescribes one wall value per phase.
const MaxBCComps = kernels.NP

// FaceBC is the fixed-width wire form of one face's boundary condition.
// Kind is a grid.BCKind; the first NVals entries of Vals are the Dirichlet
// wall values.
type FaceBC struct {
	Kind  int32
	NVals int32
	Vals  [MaxBCComps]float64
}

// Header describes a checkpoint. Beyond the decomposition it carries the
// runtime state a fixed configuration cannot reproduce: the schedule
// position (one-shot events already fired), the kernel variant the run was
// built with, the mutable process parameters (Δt, thermal gradient G, pull
// velocity V and the compensated isotherm offset Z0) so a run restarted
// mid-ramp resumes bit-compatibly, and the active per-face boundary
// conditions of both fields, so a run restarted mid-BC-ramp (a scheduled
// SetBC event) resumes with bit-identical wall state.
type Header struct {
	Step        int64
	Time        float64
	WindowShift int64
	PX, PY, PZ  int32 // decomposition
	BX, BY, BZ  int32 // block extents

	SchedulePos int64
	// The three kernel slots of the frozen wire layout. A simulation has one
	// variant for its whole life, so a writer stores it in both variant
	// slots and -1 (no pinned Fig. 5 strategy) in the third; use SetVariant
	// and Variant rather than the raw fields.
	PhiVariant  int32
	MuVariant   int32
	PhiStrategy int32
	Dt          float64
	TempG       float64
	TempV       float64
	TempZ0      float64

	// The live boundary condition of every block face for the φ and µ
	// fields.
	PhiBC [grid.NumFaces]FaceBC
	MuBC  [grid.NumFaces]FaceBC
}

// SetVariant records the kernel variant the simulation was built with.
func (h *Header) SetVariant(v kernels.Variant) {
	h.PhiVariant, h.MuVariant, h.PhiStrategy = int32(v), int32(v), -1
}

// Variant returns the kernel variant a restart must be built with. Files
// written while kernels were switchable at run time may carry different φ
// and µ variants or a pinned φ strategy; those no longer describe a
// runnable simulation and are rejected. Ids 1–4 name the retired middle
// rungs of the optimization ladder: 3 ("with T(z) optimization") and 4
// ("with staggered buffer") computed the production trajectory bit for
// bit in both kernels and restore as kernels.VarShortcut; 1 and 2 did not
// and are refused.
func (h *Header) Variant() (kernels.Variant, error) {
	if h.PhiVariant != h.MuVariant {
		return 0, fmt.Errorf("ckpt: header records different φ and µ kernel variants (%d, %d); per-kernel run-time switching was removed, a simulation has one variant",
			h.PhiVariant, h.MuVariant)
	}
	if h.PhiStrategy != -1 {
		return 0, fmt.Errorf("ckpt: header pins φ vectorization strategy %d; strategy pinning was removed with run-time kernel switching", h.PhiStrategy)
	}
	switch id := h.PhiVariant; id {
	case int32(kernels.VarGeneral), int32(kernels.VarShortcut):
		return kernels.Variant(id), nil
	case 3, 4:
		return kernels.VarShortcut, nil
	case 1, 2:
		return 0, fmt.Errorf("ckpt: header records kernel variant %d (%q), a retired optimization-ladder rung that was not bitwise identical to the production kernel",
			id, retiredRungs[id])
	default:
		return 0, fmt.Errorf("ckpt: header records unknown kernel variant %d", id)
	}
}

// retiredRungs names the refused retired variant ids.
var retiredRungs = map[int32]string{1: "basic waLBerla implementation", 2: "with SIMD intrinsics"}

// EncodeBCs packs a boundary set into the header's fixed-width form.
func EncodeBCs(b grid.BoundarySet) [grid.NumFaces]FaceBC {
	var out [grid.NumFaces]FaceBC
	for f := grid.Face(0); f < grid.NumFaces; f++ {
		out[f].Kind = int32(b[f].Kind)
		out[f].NVals = int32(len(b[f].Values))
		copy(out[f].Vals[:], b[f].Values)
	}
	return out
}

// DecodeBCs unpacks header BC entries into a boundary set. ok is false when
// the entries are malformed.
func DecodeBCs(e [grid.NumFaces]FaceBC) (grid.BoundarySet, bool) {
	var out grid.BoundarySet
	for f := grid.Face(0); f < grid.NumFaces; f++ {
		if e[f].Kind < int32(grid.BCNone) || e[f].Kind > int32(grid.BCDirichlet) {
			return grid.BoundarySet{}, false
		}
		if e[f].NVals < 0 || e[f].NVals > MaxBCComps {
			return grid.BoundarySet{}, false
		}
		out[f].Kind = grid.BCKind(e[f].Kind)
		if e[f].NVals > 0 {
			out[f].Values = append([]float64(nil), e[f].Vals[:e[f].NVals]...)
		}
	}
	return out, true
}

// Write serializes the header and all ranks' source fields (interior only;
// ghosts are reconstructed on restart) in single precision.
func Write(w io.Writer, h Header, fields []*kernels.Fields) error {
	return WritePrecision(w, h, fields, Float32)
}

// WritePrecision serializes a checkpoint with the given field precision.
// Float32 emits the paper's version-3 disk format; Float64 emits a
// version-4 file whose fields round-trip bit-exactly (the preemption
// snapshot format of the job daemon).
func WritePrecision(w io.Writer, h Header, fields []*kernels.Fields, prec Precision) error {
	version := uint32(Version3)
	if prec == Float64 {
		version = Version4
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if err := binary.Write(bw, binary.LittleEndian, uint32(Magic)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, version); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, &h); err != nil {
		return err
	}
	if int(h.PX)*int(h.PY)*int(h.PZ) != len(fields) {
		return fmt.Errorf("ckpt: %d field bundles for a %dx%dx%d decomposition",
			len(fields), h.PX, h.PY, h.PZ)
	}
	for _, f := range fields {
		for _, fld := range srcFields(f) {
			if err := writeField(bw, fld, prec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// srcFields lists a bundle's source fields in file order: φ, then µ.
func srcFields(f *kernels.Fields) [2]*grid.Field { return [2]*grid.Field{f.PhiSrc, f.MuSrc} }

// bytes is the on-disk size of one field value.
func (p Precision) bytes() int {
	if p == Float64 {
		return 8
	}
	return 4
}

// encode writes row into dst as little-endian values of precision p.
func (p Precision) encode(dst []byte, row []float64) {
	if p == Float64 {
		for i, v := range row {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
		return
	}
	for i, v := range row {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(float32(v)))
	}
}

// decode is encode's inverse.
func (p Precision) decode(row []float64, src []byte) {
	if p == Float64 {
		for i := range row {
			row[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
		return
	}
	for i := range row {
		row[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:])))
	}
}

// writeField writes f's interior at precision prec, one record per (y,z)
// with z outermost: the interior x-rows of every component, in component
// order.
func writeField(w io.Writer, f *grid.Field, prec Precision) error {
	n := f.NX * prec.bytes()
	rec := make([]byte, f.NComp*n)
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			for c := 0; c < f.NComp; c++ {
				prec.encode(rec[c*n:], f.Row(c, y, z)[f.G:f.G+f.NX])
			}
			if _, err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// readField fills f's interior from records in writeField's order.
func readField(r io.Reader, f *grid.Field, prec Precision) error {
	n := f.NX * prec.bytes()
	rec := make([]byte, f.NComp*n)
	for z := 0; z < f.NZ; z++ {
		for y := 0; y < f.NY; y++ {
			if _, err := io.ReadFull(r, rec); err != nil {
				return err
			}
			for c := 0; c < f.NComp; c++ {
				prec.decode(f.Row(c, y, z)[f.G:f.G+f.NX], rec[c*n:])
			}
		}
	}
	return nil
}

// Read deserializes a checkpoint into freshly allocated field bundles.
func Read(r io.Reader) (Header, []*kernels.Fields, error) {
	h, fields, _, err := ReadPrecision(r)
	return h, fields, err
}

// ReadPrecision is Read, additionally reporting the stored field precision
// (Float64 for version-4 files, Float32 otherwise). Rewriters that must
// preserve a file's fidelity — resharding in particular — use it to emit
// the same format they consumed.
func ReadPrecision(r io.Reader) (Header, []*kernels.Fields, Precision, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return Header{}, nil, Float32, err
	}
	if magic != Magic {
		return Header{}, nil, Float32, fmt.Errorf("ckpt: bad magic %#x", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return Header{}, nil, Float32, err
	}
	var h Header
	prec := Float32
	switch version {
	case Version3, Version4:
		if version == Version4 {
			prec = Float64
		}
		if err := binary.Read(br, binary.LittleEndian, &h); err != nil {
			return Header{}, nil, prec, err
		}
		// A writer always emits well-formed BC entries; a malformed one is
		// corruption (a restart silently dropping checkpointed wall state
		// would diverge the trajectory).
		if _, ok := DecodeBCs(h.PhiBC); !ok {
			return Header{}, nil, Float32, fmt.Errorf("ckpt: corrupt φ boundary-condition state")
		}
		if _, ok := DecodeBCs(h.MuBC); !ok {
			return Header{}, nil, Float32, fmt.Errorf("ckpt: corrupt µ boundary-condition state")
		}
	default:
		return Header{}, nil, Float32, fmt.Errorf("ckpt: unsupported version %d (this build reads versions %d and %d)", version, Version3, Version4)
	}
	n, err := rankCount(h)
	if err != nil {
		return Header{}, nil, Float32, err
	}
	fields := make([]*kernels.Fields, n)
	for i := range fields {
		f := kernels.NewFields(int(h.BX), int(h.BY), int(h.BZ))
		for _, fld := range srcFields(f) {
			if err := readField(br, fld, prec); err != nil {
				return h, nil, prec, err
			}
		}
		f.PhiDst.CopyFrom(f.PhiSrc)
		f.MuDst.CopyFrom(f.MuSrc)
		fields[i] = f
	}
	return h, fields, prec, nil
}

// rankCount validates a header's decomposition before anything is sized
// from it and returns its rank count. Extents must be positive, and the
// rank count, one rank's ghosted field bundle and the whole restored state
// in bytes must each fit in an int: a crafted header is an error, not an
// overflowed allocation.
func rankCount(h Header) (int, error) {
	if h.PX <= 0 || h.PY <= 0 || h.PZ <= 0 || h.BX <= 0 || h.BY <= 0 || h.BZ <= 0 {
		return 0, fmt.Errorf("ckpt: corrupt header %+v", h)
	}
	n, okN := mulInts(int(h.PX), int(h.PY), int(h.PZ))
	// kernels.NewFields: src and dst of φ (NP components) and µ (NR), one
	// ghost layer on every side, 8 bytes per value.
	bundle, okB := mulInts(int(h.BX)+2, int(h.BY)+2, int(h.BZ)+2, 2*(kernels.NP+kernels.NR), 8)
	_, okT := mulInts(n, bundle)
	if !okN || !okB || !okT {
		return 0, fmt.Errorf("ckpt: corrupt header: %dx%dx%d blocks of %dx%dx%d cells overflow the address space",
			h.PX, h.PY, h.PZ, h.BX, h.BY, h.BZ)
	}
	return n, nil
}

// mulInts returns the product of nonnegative xs, and false if it overflows
// an int.
func mulInts(xs ...int) (int, bool) {
	p := 1
	for _, x := range xs {
		if x != 0 && p > math.MaxInt/x {
			return 0, false
		}
		p *= x
	}
	return p, true
}

// SizeBytes returns the on-disk size of a single-precision checkpoint for
// the given decomposition: magic + version + header plus six
// single-precision values per cell. A Float64 (version-4) snapshot is twice
// the field payload.
func SizeBytes(px, py, pz, bx, by, bz int) int64 {
	cells := int64(px*py*pz) * int64(bx*by*bz)
	header := int64(8 + binary.Size(Header{}))
	return header + cells*(kernels.NP+kernels.NR)*4
}

// MaxRoundTripError returns the worst-case absolute error introduced by the
// double→single→double round trip for values of magnitude ≤ m.
func MaxRoundTripError(m float64) float64 {
	return m * math.Ldexp(1, -24) // half ulp of float32 at magnitude m, conservative
}
