// Package phasefield is a Go reproduction of "Massively Parallel
// Phase-Field Simulations for Ternary Eutectic Directional Solidification"
// (Bauer, Hötzer et al., SC 2015): a thermodynamically consistent
// grand-potential phase-field solver for the four-phase, three-component
// Ag-Al-Cu eutectic system, with the production kernels the paper's
// optimization ladder ends in (explicit vectorization, T(z) precomputation,
// staggered-value buffers, region shortcuts), block-structured domain
// decomposition with
// communication hiding, the moving-window technique, single-precision
// checkpointing and the mesh-based I/O reduction pipeline.
//
// This package is the facade over the internal subsystems — see
// ARCHITECTURE.md for the full layering:
//
//	kernels  — the φ/µ sweeps (production kernels + the general-code oracle)
//	solver   — timestep loop, intra-block parallel sweep engine, window
//	schedule — typed production events (bursts, ramps, BC events)
//	comm     — the in-process MPI analogue: staged halo exchange
//	ckpt     — versioned checkpoint containers (V3 float32, V4 float64)
//	jobd     — the multi-job orchestration daemon and campaign engine
//
// # Quick start
//
//	cfg := phasefield.DefaultConfig(64, 64, 128)
//	sim, err := phasefield.New(cfg)
//	if err != nil { ... }
//	if err := sim.InitProduction(); err != nil { ... }
//	sim.Run(1000)
//	meshes := sim.ExtractInterfaces()
//
// Production runs are driven by schedules (RunSchedule) — time-varying
// process programs loaded from JSON (LoadSchedules) — and can stop and
// resume from checkpoints (Checkpoint, Restore) bit-compatibly, including
// mid-ramp. For service deployments, internal/jobd multiplexes many
// schedule-driven runs (and whole parameter-sweep campaigns) over one
// shared worker budget behind an HTTP API; cmd/solidifyd is the daemon.
//
// See README.md for the schedule JSON format and the service walkthrough,
// and ROADMAP.md for the state of the reproduction.
package phasefield
