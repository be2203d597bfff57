// Coldwall: the time-varying boundary-environment workload. Real
// directional-solidification campaigns do not keep the boundary fixed —
// the solute feed at the bottom wall drifts as the crucible depletes and
// the top environment changes when fresh melt stops flowing in. This
// example drives that through two independent JSON schedules composed into
// one run:
//
//   - schedule.json is the furnace program: a pull-velocity ramp, a
//     nucleation burst ahead of the front, periodic checkpoints;
//   - chill.json is the boundary-environment program: the bottom µ wall
//     (the solute feed) ramps from the eutectic value to an enriched one
//     over steps 40–160, and at step 180 the top φ face switches from the
//     default Neumann outflow to a pinned-liquid Dirichlet wall.
//
// schedule.Compose merges the two deterministically (this is exactly what
// `solidify -schedule schedule.json,chill.json` does). The run then
// restores the mid-BC-ramp checkpoint and verifies the wall state resumed
// bit-exactly from the version-3 header and the continued trajectory
// tracks the uninterrupted one.
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
	"repro/internal/grid"
	"repro/internal/schedule"
)

//go:embed schedule.json
var furnaceJSON string

//go:embed chill.json
var chillJSON string

func main() {
	furnace, err := schedule.FromJSON(strings.NewReader(furnaceJSON))
	if err != nil {
		log.Fatal(err)
	}
	chill, err := schedule.FromJSON(strings.NewReader(chillJSON))
	if err != nil {
		log.Fatal(err)
	}
	sched, err := schedule.Compose(furnace, chill)
	if err != nil {
		log.Fatal(err)
	}

	outDir, err := os.MkdirTemp(".", "coldwall-out-")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("coldwall: output in", outDir)

	cfg := phasefield.DefaultConfig(24, 24, 48)
	cfg.MovingWindow = true
	cfg.WindowFraction = 0.5
	cfg.Seed = 9
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

	const steps = 240
	fmt.Printf("running %d scheduled steps (v ramp, burst, µ-wall ramp, φ-wall switch, ckpt/80)\n", steps)
	for done := 0; done < steps; done += 60 {
		if err := sim.RunSchedule(sched, 60, opt); err != nil {
			log.Fatal(err)
		}
		_, mu := sim.DomainBCs()
		fmt.Printf("step %4d  t=%7.2f  solid=%.3f  window=%d  µ wall %v %v\n",
			sim.Step(), sim.Time(), sim.SolidFraction(), sim.WindowShift(),
			mu[grid.ZMin].Kind, mu[grid.ZMin].Values)
	}
	phiBCs, _ := sim.DomainBCs()
	fmt.Printf("final φ top wall: %v %v\n", phiBCs[grid.ZMax].Kind, phiBCs[grid.ZMax].Values)

	// Restart from the mid-BC-ramp checkpoint: the V3 header must hand
	// back the exact wall values the ramp prescribed at that step, and the
	// continued run must track the uninterrupted one.
	ckpt := filepath.Join(outDir, "state_000160.pfcp")
	rcfg := phasefield.DefaultConfig(0, 0, 0) // production µ-overlap; the grid comes from the checkpoint
	rcfg.MovingWindow, rcfg.WindowFraction = true, 0.5
	restored, err := phasefield.Restore(ckpt, rcfg)
	if err != nil {
		log.Fatal(err)
	}
	_, muR := restored.DomainBCs()
	var buf [4]float64
	want := chill.SetBCs()[0].ValuesAt(restored.Step()-1, buf[:])
	for i := range want {
		if muR[grid.ZMin].Values[i] != want[i] {
			log.Fatalf("restored wall value %d: %g, want %g bit-exact", i, muR[grid.ZMin].Values[i], want[i])
		}
	}
	fmt.Printf("restored step %d with bit-exact mid-ramp µ wall %v\n", restored.Step(), muR[grid.ZMin].Values)

	if err := restored.RunSchedule(sched, steps-restored.Step(), phasefield.ScheduleOptions{}); err != nil {
		log.Fatal(err)
	}
	drift := math.Abs(restored.SolidFraction() - sim.SolidFraction())
	fmt.Printf("restart leg solid fraction drift: %.2e (float32 checkpoint seeding only)\n", drift)
	if drift > 1e-3 {
		log.Fatal("restarted trajectory diverged")
	}
	fmt.Println("coldwall: OK")
}
