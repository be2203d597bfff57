package ckpt

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/kernels"
)

func randomFields(rng *rand.Rand, n, bx, by, bz int) []*kernels.Fields {
	out := make([]*kernels.Fields, n)
	for i := range out {
		f := kernels.NewFields(bx, by, bz)
		f.PhiSrc.Interior(func(x, y, z int) {
			for a := 0; a < kernels.NP; a++ {
				f.PhiSrc.Set(a, x, y, z, rng.Float64())
			}
			for k := 0; k < kernels.NR; k++ {
				f.MuSrc.Set(k, x, y, z, rng.NormFloat64())
			}
		})
		out[i] = f
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fields := randomFields(rng, 4, 5, 6, 7)
	h := Header{Step: 42, Time: 3.5, WindowShift: 9, PX: 2, PY: 2, PZ: 1, BX: 5, BY: 6, BZ: 7}

	var buf bytes.Buffer
	if err := Write(&buf, h, fields); err != nil {
		t.Fatal(err)
	}
	h2, fields2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Errorf("header round trip: %+v != %+v", h2, h)
	}
	if len(fields2) != len(fields) {
		t.Fatalf("field count %d", len(fields2))
	}
	tol := MaxRoundTripError(4)
	for i := range fields {
		if ok, maxd := fields[i].PhiSrc.InteriorEqual(fields2[i].PhiSrc, tol); !ok {
			t.Errorf("rank %d φ round-trip error %g > %g", i, maxd, tol)
		}
		if ok, maxd := fields[i].MuSrc.InteriorEqual(fields2[i].MuSrc, tol); !ok {
			t.Errorf("rank %d µ round-trip error %g > %g", i, maxd, tol)
		}
	}
	// Destination fields restored as copies of source.
	if ok, _ := fields2[0].PhiDst.InteriorEqual(fields2[0].PhiSrc, 0); !ok {
		t.Error("PhiDst not initialized from PhiSrc")
	}
}

// A Float64 (version-4) snapshot must round-trip every field value
// bit-exactly — this is what makes preempt/resume in the job daemon
// trajectory-preserving.
func TestFloat64RoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fields := randomFields(rng, 2, 5, 4, 6)
	h := Header{Step: 7, Time: 1.25, PX: 2, PY: 1, PZ: 1, BX: 5, BY: 4, BZ: 6,
		SchedulePos: 1, PhiVariant: 3, MuVariant: 3, PhiStrategy: -1,
		Dt: 0.001, TempG: 1, TempV: 0.02, TempZ0: 8}
	h.PhiBC = EncodeBCs(randomBCs(rng, kernels.NP))
	h.MuBC = EncodeBCs(randomBCs(rng, kernels.NR))

	var buf bytes.Buffer
	if err := WritePrecision(&buf, h, fields, Float64); err != nil {
		t.Fatal(err)
	}
	h2, fields2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Errorf("header round trip: %+v != %+v", h2, h)
	}
	for i := range fields {
		if ok, maxd := fields[i].PhiSrc.InteriorEqual(fields2[i].PhiSrc, 0); !ok {
			t.Errorf("rank %d φ not bit-exact: %g", i, maxd)
		}
		if ok, maxd := fields[i].MuSrc.InteriorEqual(fields2[i].MuSrc, 0); !ok {
			t.Errorf("rank %d µ not bit-exact: %g", i, maxd)
		}
	}
}

// Corrupt BC entries in a version-4 header are read errors, exactly as for
// version 3.
func TestFloat64CorruptBCRejected(t *testing.T) {
	fields := randomFields(rand.New(rand.NewSource(12)), 1, 4, 4, 4)
	h := Header{PX: 1, PY: 1, PZ: 1, BX: 4, BY: 4, BZ: 4}
	h.PhiBC[0].Kind = 99
	var buf bytes.Buffer
	if err := WritePrecision(&buf, h, fields, Float64); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(&buf); err == nil {
		t.Error("corrupt v4 BC state accepted")
	}
}

func TestSinglePrecisionOnDisk(t *testing.T) {
	fields := randomFields(rand.New(rand.NewSource(2)), 1, 4, 4, 4)
	h := Header{PX: 1, PY: 1, PZ: 1, BX: 4, BY: 4, BZ: 4}
	var buf bytes.Buffer
	if err := Write(&buf, h, fields); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(buf.Len()), SizeBytes(1, 1, 1, 4, 4, 4); got != want {
		t.Errorf("checkpoint size %d, want %d (single precision)", got, want)
	}
	// The same data in double precision would be twice the payload.
	doubleSize := int64(4*4*4*(kernels.NP+kernels.NR)) * 8
	if int64(buf.Len()) >= doubleSize {
		t.Errorf("checkpoint not smaller than double-precision payload (%d >= %d)", buf.Len(), doubleSize)
	}
}

func TestRejectsGarbage(t *testing.T) {
	if _, _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Error("garbage accepted")
	}
	// Right magic, wrong version.
	var buf bytes.Buffer
	buf.Write([]byte{0x50, 0x43, 0x46, 0x50}) // little-endian Magic
	buf.Write([]byte{0xFF, 0, 0, 0})
	if _, _, err := Read(&buf); err == nil {
		t.Error("bad version accepted")
	}
}

func TestWriteValidatesDecomposition(t *testing.T) {
	fields := randomFields(rand.New(rand.NewSource(3)), 2, 4, 4, 4)
	h := Header{PX: 3, PY: 1, PZ: 1, BX: 4, BY: 4, BZ: 4}
	var buf bytes.Buffer
	if err := Write(&buf, h, fields); err == nil {
		t.Error("mismatched decomposition accepted")
	}
}

func TestTruncatedCheckpoint(t *testing.T) {
	fields := randomFields(rand.New(rand.NewSource(4)), 1, 4, 4, 4)
	h := Header{PX: 1, PY: 1, PZ: 1, BX: 4, BY: 4, BZ: 4}
	var buf bytes.Buffer
	if err := Write(&buf, h, fields); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated checkpoint accepted")
	}
}

// randomBCs draws a random physical boundary set of the given Dirichlet
// arity.
func randomBCs(rng *rand.Rand, ncomp int) grid.BoundarySet {
	var b grid.BoundarySet
	for f := range b {
		switch rng.Intn(3) {
		case 0:
			b[f].Kind = grid.BCPeriodic
		case 1:
			b[f].Kind = grid.BCNeumann
		default:
			b[f].Kind = grid.BCDirichlet
			b[f].Values = make([]float64, ncomp)
			for i := range b[f].Values {
				b[f].Values[i] = rng.NormFloat64()
			}
		}
	}
	return b
}

// Property test: for random headers and fields Write→Read must reproduce
// the header exactly and every field value within the single-precision
// round trip; any truncation of the byte stream must error, never yield a
// silently short state; the same bytes relabelled as the retired version-1
// or version-2 layout are refused; and the header's kernel slots resolve to
// a variant exactly when they describe a one-variant simulation of a kernel
// that still exists or computed production's trajectory bit for bit.
func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 24; trial++ {
		px, py, pz := 1+rng.Intn(2), 1+rng.Intn(2), 1+rng.Intn(2)
		bx, by, bz := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		n := px * py * pz
		fields := randomFields(rng, n, bx, by, bz)
		phiBCs := randomBCs(rng, kernels.NP)
		muBCs := randomBCs(rng, kernels.NR)
		h := Header{
			Step: rng.Int63n(1 << 40), Time: rng.Float64() * 1e4,
			WindowShift: rng.Int63n(1 << 20),
			PX:          int32(px), PY: int32(py), PZ: int32(pz),
			BX: int32(bx), BY: int32(by), BZ: int32(bz),
			SchedulePos: rng.Int63n(64),
			PhiVariant:  int32(rng.Intn(6)), MuVariant: int32(rng.Intn(6)),
			PhiStrategy: int32(rng.Intn(3)) - 1,
			Dt:          rng.Float64(), TempG: rng.Float64(),
			TempV: rng.Float64(), TempZ0: rng.Float64() * 100,
			PhiBC: EncodeBCs(phiBCs),
			MuBC:  EncodeBCs(muBCs),
		}

		var buf bytes.Buffer
		if err := Write(&buf, h, fields); err != nil {
			t.Fatal(err)
		}
		raw := append([]byte(nil), buf.Bytes()...)

		h2, fields2, err := Read(&buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, old := range []uint32{1, 2} {
			relabelled := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(relabelled[4:], old)
			if _, _, err := Read(bytes.NewReader(relabelled)); err == nil || !strings.Contains(err.Error(), "unsupported version") {
				t.Fatalf("trial %d: version-%d file: got %v, want unsupported version", trial, old, err)
			}
		}
		// Ids 0 and 5 are the live variants; 3 and 4 are retired rungs
		// that restore as production; 1 and 2 are refused.
		v, verr := h2.Variant()
		want := map[int32]kernels.Variant{0: kernels.VarGeneral, 3: kernels.VarShortcut, 4: kernels.VarShortcut, 5: kernels.VarShortcut}
		wantV, runnable := want[h.PhiVariant]
		if runnable = runnable && h.PhiVariant == h.MuVariant && h.PhiStrategy == -1; runnable != (verr == nil) {
			t.Fatalf("trial %d: kernel slots (%d,%d,%d): Variant() error %v", trial, h.PhiVariant, h.MuVariant, h.PhiStrategy, verr)
		} else if runnable && v != wantV {
			t.Fatalf("trial %d: Variant() = %v, want %v", trial, v, wantV)
		}
		gotPhi, ok := DecodeBCs(h2.PhiBC)
		if !ok {
			t.Fatalf("trial %d: V3 BC state did not decode", trial)
		}
		gotMu, ok := DecodeBCs(h2.MuBC)
		if !ok {
			t.Fatalf("trial %d: V3 µ BC state did not decode", trial)
		}
		for f := range gotPhi {
			if gotPhi[f].Kind != phiBCs[f].Kind || gotMu[f].Kind != muBCs[f].Kind {
				t.Fatalf("trial %d face %d: BC kind round trip %v/%v, want %v/%v",
					trial, f, gotPhi[f].Kind, gotMu[f].Kind, phiBCs[f].Kind, muBCs[f].Kind)
			}
			for i, v := range phiBCs[f].Values {
				if gotPhi[f].Values[i] != v {
					t.Fatalf("trial %d face %d: φ wall value %g != %g", trial, f, gotPhi[f].Values[i], v)
				}
			}
			for i, v := range muBCs[f].Values {
				if gotMu[f].Values[i] != v {
					t.Fatalf("trial %d face %d: µ wall value %g != %g", trial, f, gotMu[f].Values[i], v)
				}
			}
		}
		if h2 != h {
			t.Fatalf("trial %d: header %+v != %+v", trial, h2, h)
		}
		tol := MaxRoundTripError(4)
		for i := range fields {
			if ok, maxd := fields[i].PhiSrc.InteriorEqual(fields2[i].PhiSrc, tol); !ok {
				t.Fatalf("trial %d rank %d: φ error %g", trial, i, maxd)
			}
			if ok, maxd := fields[i].MuSrc.InteriorEqual(fields2[i].MuSrc, tol); !ok {
				t.Fatalf("trial %d rank %d: µ error %g", trial, i, maxd)
			}
		}

		// Any strict prefix must fail, never truncate silently.
		cut := rng.Intn(len(raw))
		if _, _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("trial %d: %d-byte prefix of %d accepted", trial, cut, len(raw))
		}
	}
}

func TestCorruptedMagic(t *testing.T) {
	fields := randomFields(rand.New(rand.NewSource(5)), 1, 3, 3, 3)
	var buf bytes.Buffer
	if err := Write(&buf, Header{PX: 1, PY: 1, PZ: 1, BX: 3, BY: 3, BZ: 3}, fields); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[0] ^= 0xFF
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("corrupted magic accepted")
	}
	// Empty stream: clean error, not a panic.
	if _, _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

// A header whose extents are zero, or whose decomposition or block size
// would overflow an allocation, is a read error before anything is sized
// from it — never a panic or an attempt at an absurd allocation.
func TestCorruptHeaderExtentsRejected(t *testing.T) {
	fields := randomFields(rand.New(rand.NewSource(6)), 1, 3, 3, 3)
	var buf bytes.Buffer
	if err := WritePrecision(&buf, Header{PX: 1, PY: 1, PZ: 1, BX: 3, BY: 3, BZ: 3}, fields, Float64); err != nil {
		t.Fatal(err)
	}
	// PX..PZ and BX..BZ live right after magic+version+Step+Time+WindowShift.
	const off = 8 + 8 + 8 + 8
	for _, tc := range []struct {
		name    string
		extents [6]uint32 // PX, PY, PZ, BX, BY, BZ
	}{
		{"zero decomposition", [6]uint32{0, 1, 1, 3, 3, 3}},
		{"rank count overflows", [6]uint32{1 << 21, 1 << 21, 1 << 21, 3, 3, 3}},
		{"ghosted block overflows", [6]uint32{1, 1, 1, 1<<31 - 1, 1<<31 - 1, 1<<31 - 1}},
		{"whole state overflows", [6]uint32{1 << 5, 1 << 5, 1 << 5, 1 << 14, 1 << 14, 1 << 14}},
	} {
		raw := append([]byte(nil), buf.Bytes()...)
		for i, v := range tc.extents {
			binary.LittleEndian.PutUint32(raw[off+4*i:], v)
		}
		if _, _, err := Read(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: header accepted", tc.name)
		}
	}
}

func TestMaxRoundTripError(t *testing.T) {
	if e := MaxRoundTripError(1); e <= 0 || e > 1e-6 {
		t.Errorf("unexpected float32 error bound %g", e)
	}
	if math.Abs(MaxRoundTripError(2)-2*MaxRoundTripError(1)) > 1e-20 {
		t.Error("error bound should scale linearly with magnitude")
	}
}

func TestCorruptV3BCStateRejected(t *testing.T) {
	fields := randomFields(rand.New(rand.NewSource(7)), 1, 3, 3, 3)
	var buf bytes.Buffer
	if err := Write(&buf, Header{PX: 1, PY: 1, PZ: 1, BX: 3, BY: 3, BZ: 3}, fields); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// PhiBC[0].Kind sits after magic+version (8) and the V2 prefix of the
	// header (3×int64 + 6×int32 + int64 + 3×int32 + 4×float64 = 100).
	off := 8 + 100
	binary.LittleEndian.PutUint32(raw[off:], 99)
	if _, _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Error("V3 file with corrupt BC kind accepted")
	}
	// Out-of-range NVals must also be corruption, not a silent fallback.
	raw2 := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(raw2[off:], 0)            // restore kind
	binary.LittleEndian.PutUint32(raw2[off+4:], uint32(50)) // NVals
	if _, _, err := Read(bytes.NewReader(raw2)); err == nil {
		t.Error("V3 file with corrupt BC value count accepted")
	}
}
