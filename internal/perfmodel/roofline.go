// Package perfmodel holds the paper's performance analysis (§5.1.1). The
// repo benchmark (bench/) reads its per-update operation counts,
// PhiKernelOps and MuKernelOps, to turn measured kernel rates into FLOP/B
// and roofline fractions, next to MuBytesPerLUP, the paper's µ traffic
// estimate. The rest (the roofline and IACA-style port models, and the
// analytic SuperMUC, Hornet and JUQUEEN machine and network models
// calibrated against the paper's reported measurements) has no caller
// outside its tests; it waits for ROADMAP.md item 19(ii), which deletes it
// with those tests. The figures it fed are recorded in ARCHITECTURE.md
// ("Paper reproduction").
package perfmodel

// KernelOpMix documents the per-cell floating-point operation mix of a
// kernel (from static inspection of the optimized kernels without
// shortcuts, where the count is exact; the µ totals match the paper's
// 1384 FLOP/LUP).
type KernelOpMix struct {
	Adds, Muls, Divs int
}

// Total returns the total FLOP count per lattice update.
func (k KernelOpMix) Total() int { return k.Adds + k.Muls + k.Divs }

// MuKernelOps is the µ-kernel mix: 1384 FLOP per cell update (§5.1.1),
// dominated by additions — the source of the add/mul port imbalance.
var MuKernelOps = KernelOpMix{Adds: 820, Muls: 526, Divs: 38}

// PhiKernelOps is the φ-kernel mix (no shortcuts).
var PhiKernelOps = KernelOpMix{Adds: 540, Muls: 390, Divs: 12}

// MuBytesPerLUP is the paper's traffic estimate for one µ-cell update under
// the half-reuse cache assumption: at most 680 bytes from main memory.
const MuBytesPerLUP = 680

// Roofline holds the two machine ceilings of the roofline model.
type Roofline struct {
	StreamBW     float64 // attainable memory bandwidth, bytes/s
	PeakFLOPs    float64 // peak floating-point rate, FLOP/s
	FLOPsPerByte float64 // machine balance = PeakFLOPs/StreamBW
}

// NewRoofline builds a roofline from STREAM bandwidth and peak FLOP rate.
func NewRoofline(streamBW, peakFLOPs float64) Roofline {
	return Roofline{StreamBW: streamBW, PeakFLOPs: peakFLOPs, FLOPsPerByte: peakFLOPs / streamBW}
}

// MemoryBoundMLUPs returns the bandwidth ceiling in MLUP/s for a kernel
// loading bytesPerLUP from main memory (the paper's 80 GiB/s / 680 B =
// 126.3 MLUP/s bound).
func (r Roofline) MemoryBoundMLUPs(bytesPerLUP float64) float64 {
	return r.StreamBW / bytesPerLUP / 1e6
}

// ComputeBoundMLUPs returns the in-core ceiling in MLUP/s for a kernel
// executing flopsPerLUP at the given fraction of peak.
func (r Roofline) ComputeBoundMLUPs(flopsPerLUP, fracPeak float64) float64 {
	return r.PeakFLOPs * fracPeak / flopsPerLUP / 1e6
}

// ArithmeticIntensity returns FLOP per byte.
func ArithmeticIntensity(flopsPerLUP, bytesPerLUP float64) float64 {
	return flopsPerLUP / bytesPerLUP
}

// IsComputeBound reports whether a kernel with the given intensity is
// limited by in-core execution rather than memory bandwidth on r.
func (r Roofline) IsComputeBound(intensity float64) bool {
	return intensity > r.FLOPsPerByte
}

// AchievedGFLOPs converts a measured MLUP/s rate into GFLOP/s.
func AchievedGFLOPs(mlups, flopsPerLUP float64) float64 {
	return mlups * 1e6 * flopsPerLUP / 1e9
}

// FractionOfPeak returns the fraction of peak FLOP rate achieved by a
// kernel running at mlups.
func FractionOfPeak(mlups, flopsPerLUP, peakFLOPs float64) float64 {
	return mlups * 1e6 * flopsPerLUP / peakFLOPs
}

// PortModel is the IACA-style in-core model: one SIMD add port and one SIMD
// multiply port (Sandy Bridge), DivCycles cycles of divider occupancy per
// vectorized division.
type PortModel struct {
	SIMDWidth int     // lanes per vector op
	DivCycles float64 // divider occupancy per vector division
}

// SandyBridge is the SuperMUC core model.
var SandyBridge = PortModel{SIMDWidth: 4, DivCycles: 20}

// PeakFraction returns the best attainable fraction of peak under ideal
// front-end and cache conditions for the given op mix: the imbalance
// between additions and multiplications leaves one port idle part of the
// time, and divisions serialize on the divider (the reasons the paper's
// IACA analysis caps the µ-kernel at 43% peak).
func (p PortModel) PeakFraction(mix KernelOpMix) float64 {
	w := float64(p.SIMDWidth)
	idealCycles := float64(mix.Adds+mix.Muls) / (2 * w)
	actualCycles := maxf(float64(mix.Adds), float64(mix.Muls))/w +
		float64(mix.Divs)/w*p.DivCycles
	if actualCycles <= 0 {
		return 1
	}
	return idealCycles / actualCycles
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
