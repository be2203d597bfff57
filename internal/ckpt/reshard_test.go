package ckpt

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/kernels"
)

// Resharding onto a finer grid and back must reproduce the original
// bundle bit-for-bit: the copies are pure float64 moves.
func TestReshardRoundTripBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fields := randomFields(rng, 1, 8, 8, 4)
	h := Header{Step: 17, Time: 1.25, PX: 1, PY: 1, PZ: 1, BX: 8, BY: 8, BZ: 4}

	h4, split, err := Reshard(h, fields, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h4.PX != 2 || h4.PY != 2 || h4.PZ != 2 || h4.BX != 4 || h4.BY != 4 || h4.BZ != 2 {
		t.Fatalf("bad resharded header %+v", h4)
	}
	if h4.Step != h.Step || h4.Time != h.Time {
		t.Fatalf("reshard clobbered scalar header state: %+v", h4)
	}
	h1, merged, err := Reshard(h4, split, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h1.BX != 8 || h1.BY != 8 || h1.BZ != 4 {
		t.Fatalf("bad merged header %+v", h1)
	}
	if ok, maxd := merged[0].PhiSrc.InteriorEqual(fields[0].PhiSrc, 0); !ok {
		t.Errorf("φ not bitwise after split+merge, max |Δ| = %g", maxd)
	}
	if ok, maxd := merged[0].MuSrc.InteriorEqual(fields[0].MuSrc, 0); !ok {
		t.Errorf("µ not bitwise after split+merge, max |Δ| = %g", maxd)
	}
	if ok, _ := merged[0].PhiDst.InteriorEqual(merged[0].PhiSrc, 0); !ok {
		t.Error("PhiDst not mirrored from PhiSrc")
	}
}

// Each resharded block must hold exactly the cells it owns under the new
// decomposition — verified against values that encode global coordinates.
func TestReshardPlacesCellsByGlobalCoordinate(t *testing.T) {
	h := Header{PX: 2, PY: 1, PZ: 1, BX: 4, BY: 6, BZ: 2}
	fields := make([]*kernels.Fields, 2)
	for b := range fields {
		f := kernels.NewFields(4, 6, 2)
		ox := b * 4
		f.PhiSrc.Interior(func(x, y, z int) {
			gx := ox + x
			for a := 0; a < kernels.NP; a++ {
				f.PhiSrc.Set(a, x, y, z, float64(((gx*6+y)*2+z)*kernels.NP+a))
			}
		})
		fields[b] = f
	}
	_, out, err := Reshard(h, fields, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 2; b++ {
		oy := b * 3
		out[b].PhiSrc.Interior(func(x, y, z int) {
			gy := oy + y
			for a := 0; a < kernels.NP; a++ {
				want := float64(((x*6+gy)*2+z)*kernels.NP + a)
				if got := out[b].PhiSrc.At(a, x, y, z); got != want {
					t.Fatalf("block %d cell (%d,%d,%d,%d) = %g, want %g", b, a, x, y, z, got, want)
				}
			}
		})
	}
}

func TestReshardRejectsNonDivisibleGrid(t *testing.T) {
	h := Header{PX: 1, PY: 1, PZ: 1, BX: 8, BY: 8, BZ: 4}
	fields := randomFields(rand.New(rand.NewSource(3)), 1, 8, 8, 4)
	if _, _, err := Reshard(h, fields, 3, 1, 1); err == nil {
		t.Fatal("expected error for 8-wide domain on 3 ranks")
	}
	if _, _, err := Reshard(h, fields, 0, 1, 1); err == nil {
		t.Fatal("expected error for zero-rank grid")
	}
	if _, _, err := Reshard(h, fields[:0], 1, 1, 1); err == nil {
		t.Fatal("expected error for bundle/decomposition mismatch")
	}
}

// A version-4 file resharded through ReadPrecision/WritePrecision keeps
// float64 fidelity; re-merging reproduces the original file's payload
// bit-for-bit.
func TestReshardPreservesPrecisionThroughFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fields := randomFields(rng, 1, 8, 4, 4)
	h := Header{Step: 5, PX: 1, PY: 1, PZ: 1, BX: 8, BY: 4, BZ: 4}

	var orig bytes.Buffer
	if err := WritePrecision(&orig, h, fields, Float64); err != nil {
		t.Fatal(err)
	}
	h0, f0, prec, err := ReadPrecision(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if prec != Float64 {
		t.Fatalf("precision = %v, want Float64", prec)
	}
	h2, f2, err := Reshard(h0, f0, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mid bytes.Buffer
	if err := WritePrecision(&mid, h2, f2, prec); err != nil {
		t.Fatal(err)
	}
	h3, f3, prec3, err := ReadPrecision(bytes.NewReader(mid.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if prec3 != Float64 {
		t.Fatalf("resharded file precision = %v, want Float64", prec3)
	}
	hb, fb, err := Reshard(h3, f3, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := WritePrecision(&back, hb, fb, prec3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), orig.Bytes()) {
		t.Fatal("split+merge through v4 files is not byte-identical")
	}
}

// Source and target blocks whose x-extents do not nest split a source row
// into runs that start and end mid-block on both sides; every φ and µ
// value must still land on its global coordinate.
func TestReshardMisalignedRuns(t *testing.T) {
	value := func(c, gx, gy, gz int) float64 { return float64(((c*12+gx)*4+gy)*6 + gz) }
	h := Header{PX: 2, PY: 1, PZ: 2, BX: 6, BY: 4, BZ: 3}
	fields := make([]*kernels.Fields, 4)
	for r := range fields {
		f := kernels.NewFields(6, 4, 3)
		ox, oz := r%2*6, r/2*3
		for _, fld := range srcFields(f) {
			fld.Interior(func(x, y, z int) {
				for c := 0; c < fld.NComp; c++ {
					fld.Set(c, x, y, z, value(c, ox+x, y, oz+z))
				}
			})
		}
		fields[r] = f
	}
	_, out, err := Reshard(h, fields, 3, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for r, f := range out {
		ox, oz := r%3*4, r/3*2
		for _, fld := range srcFields(f) {
			fld.Interior(func(x, y, z int) {
				for c := 0; c < fld.NComp; c++ {
					if got, want := fld.At(c, x, y, z), value(c, ox+x, y, oz+z); got != want {
						t.Fatalf("block %d cell (%d,%d,%d,%d) = %g, want %g", r, c, x, y, z, got, want)
					}
				}
			})
		}
	}
}
