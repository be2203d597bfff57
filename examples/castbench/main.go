// Castbench: the production scenario-schedule workload. The paper's §5
// production runs are not fixed-parameter benchmarks — the furnace program
// ramps the pull velocity and thermal gradient, grains nucleate in bursts
// ahead of the front, and long runs stop and restart from single-precision
// checkpoints. This example drives all of that through one JSON schedule
// (schedule.json, embedded):
//
//   - pull velocity v ramps 0.02→0.05 over the first 300 steps while the
//     gradient G ramps 0.005→0.008;
//   - two nucleation bursts seed fresh grains in the melt (one mixed per
//     the eutectic fractions, one pinned to a single solid phase);
//   - a checkpoint is written every 100 steps; the run then restores the
//     mid-ramp checkpoint and verifies the continued trajectory tracks the
//     uninterrupted one.
package main

import (
	_ "embed"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/schedule"
)

//go:embed schedule.json
var scheduleJSON string

func main() {
	sched, err := schedule.FromJSON(strings.NewReader(scheduleJSON))
	if err != nil {
		log.Fatal(err)
	}

	outDir, err := os.MkdirTemp(".", "castbench-out-")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("castbench: output in", outDir)

	cfg := phasefield.DefaultConfig(32, 32, 64)
	cfg.MovingWindow = true
	cfg.WindowFraction = 0.5
	cfg.Seed = 5
	sim, err := phasefield.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := sim.InitProduction(); err != nil {
		log.Fatal(err)
	}

	opt := phasefield.ScheduleOptions{
		CheckpointPath: filepath.Join(outDir, "state_%06d.pfcp"),
		Log:            func(msg string) { fmt.Println("  " + msg) },
	}

	const steps = 400
	fmt.Printf("running %d scheduled steps (v ramp, G ramp, 2 bursts, ckpt/100)\n", steps)
	for done := 0; done < steps; done += 100 {
		if err := sim.RunSchedule(sched, 100, opt); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("step %4d  t=%7.2f  v=%.4f G=%.4f  solid=%.3f  window=%d\n",
			sim.Step(), sim.Time(), sim.Params().Temp.V, sim.Params().Temp.G,
			sim.SolidFraction(), sim.WindowShift())
	}

	// Restart from the mid-ramp checkpoint and verify the continued
	// trajectory tracks the uninterrupted one.
	ckpt := filepath.Join(outDir, "state_000200.pfcp")
	rcfg := phasefield.DefaultConfig(0, 0, 0) // production µ-overlap; the grid comes from the checkpoint
	rcfg.MovingWindow, rcfg.WindowFraction = true, 0.5
	restored, err := phasefield.Restore(ckpt, rcfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restored %s: step %d, schedule pos %d, v=%.4f (mid-ramp)\n",
		ckpt, restored.Step(), restored.SchedulePos(), restored.Params().Temp.V)
	if err := restored.RunSchedule(sched, steps-restored.Step(), phasefield.ScheduleOptions{}); err != nil {
		log.Fatal(err)
	}
	dSolid := math.Abs(restored.SolidFraction() - sim.SolidFraction())
	fmt.Printf("restart vs uninterrupted after %d steps: |Δ solid fraction| = %.2e\n", steps, dSolid)
	if dSolid > 1e-3 {
		log.Fatalf("restarted trajectory diverged (%.2e)", dSolid)
	}
	fmt.Println("castbench complete: restart reproduces the uninterrupted trajectory")
}
