package ckpt

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/kernels"
)

// Reshard re-decomposes a checkpoint's field bundles onto a px×py×pz rank
// grid, returning the rewritten header and per-rank bundles in the target
// grid's rank order. It is pure data movement — every cell value is copied
// bit-exactly into the block that owns it under the new decomposition — so
// a version-4 (float64) checkpoint resharded and restored resumes the
// trajectory bit-identically to the original decomposition; this is how a
// rank grid grows or shrinks between runs ("elastic" restart). The global
// domain must divide evenly by the target grid.
func Reshard(h Header, fields []*kernels.Fields, px, py, pz int) (Header, []*kernels.Fields, error) {
	if px < 1 || py < 1 || pz < 1 {
		return Header{}, nil, fmt.Errorf("ckpt: reshard to invalid grid %dx%dx%d", px, py, pz)
	}
	nx := int(h.PX) * int(h.BX)
	ny := int(h.PY) * int(h.BY)
	nz := int(h.PZ) * int(h.BZ)
	if nx%px != 0 || ny%py != 0 || nz%pz != 0 {
		return Header{}, nil, fmt.Errorf("ckpt: domain %dx%dx%d not divisible by target grid %dx%dx%d",
			nx, ny, nz, px, py, pz)
	}
	if len(fields) != int(h.PX)*int(h.PY)*int(h.PZ) {
		return Header{}, nil, fmt.Errorf("ckpt: %d field bundles for a %dx%dx%d decomposition",
			len(fields), h.PX, h.PY, h.PZ)
	}
	obx, oby, obz := int(h.BX), int(h.BY), int(h.BZ)
	tbx, tby, tbz := nx/px, ny/py, nz/pz

	out := make([]*kernels.Fields, px*py*pz)
	for i := range out {
		out[i] = kernels.NewFields(tbx, tby, tbz)
	}
	// Walk the source blocks' interior rows and scatter each x-run into the
	// target block that owns its global coordinates; a row splits into as
	// many runs as target blocks it crosses. Ghost layers stay zero on the
	// targets — the restore path reconstructs them with a full exchange,
	// exactly as it does for freshly read bundles.
	from := grid.BlockGrid{PX: int(h.PX), PY: int(h.PY), PZ: int(h.PZ), BX: obx, BY: oby, BZ: obz}
	to := grid.BlockGrid{PX: px, PY: py, PZ: pz, BX: tbx, BY: tby, BZ: tbz}
	for r, src := range fields {
		ox, oy, oz := from.Origin(r)
		for z := 0; z < obz; z++ {
			gz := oz + z
			for y := 0; y < oby; y++ {
				gy := oy + y
				for x := 0; x < obx; {
					gx := ox + x
					lx := gx % tbx
					w := min(tbx-lx, obx-x)
					dsts := srcFields(out[to.Rank(gx/tbx, gy/tby, gz/tbz)])
					for k, sf := range srcFields(src) {
						df := dsts[k]
						for c := 0; c < sf.NComp; c++ {
							copy(df.Row(c, gy%tby, gz%tbz)[df.G+lx:df.G+lx+w], sf.Row(c, y, z)[sf.G+x:])
						}
					}
					x += w
				}
			}
		}
	}
	for _, f := range out {
		f.PhiDst.CopyFrom(f.PhiSrc)
		f.MuDst.CopyFrom(f.MuSrc)
	}
	nh := h
	nh.PX, nh.PY, nh.PZ = int32(px), int32(py), int32(pz)
	nh.BX, nh.BY, nh.BZ = int32(tbx), int32(tby), int32(tbz)
	return nh, out, nil
}
