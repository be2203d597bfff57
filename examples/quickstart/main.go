// Quickstart: the minimal end-to-end use of the public API — build a small
// directional-solidification simulation, advance it, and inspect the
// microstructure.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// A small domain: 32×32 laterally, 64 cells along the growth
	// direction, single block. DefaultConfig selects the calibrated
	// Ag-Al-Cu parameters and µ-overlap communication hiding; every
	// simulation runs the production kernels.
	cfg := phasefield.DefaultConfig(32, 32, 64)
	sim, err := phasefield.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Voronoi solid nuclei at the bottom, melt above (the paper's
	// Fig. 2 setup).
	if err := sim.InitProduction(); err != nil {
		log.Fatal(err)
	}

	names := phasefield.PhaseNames()
	fmt.Printf("phases: %v\n", names)
	fmt.Printf("stable dt: %g\n", sim.Params().Dt)

	for i := 0; i < 5; i++ {
		m := sim.RunMeasured(40)
		fr := sim.PhaseFractions()
		fmt.Printf("step %4d  solid fraction %.3f  front z=%d  %.2f MLUP/s\n",
			sim.Step(), sim.SolidFraction(), sim.FrontHeight(), m.MLUPs())
		_ = fr
	}

	// Extract the three solid-phase interface meshes (marching pipeline
	// of §3.2).
	for a, m := range sim.ExtractInterfaces() {
		fmt.Printf("interface mesh %-6s: %6d triangles, area %.1f\n",
			names[a], m.NumTris(), m.Area())
	}
}
