package main

// metrics.go — the metric catalogue. BENCHMARK.json at the repository root
// lists the same names, units, directions and bounds; TestBenchmarkJSON
// keeps the two in step.

// metricDef declares one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, share of the parent's median
}

// endToEnd are the metrics a user running a solidification study feels.
// The driver's protocol requires every workload to report every one of
// them, so they are defined per workload through its unit operation (see
// README.md, "End-to-end metrics"):
//
//	step_mlups  cell updates completed per wall second of the timed part
//	op_ms_p50   median latency of the workload's unit operation
//
// The bounds follow the run-to-run spread measured over ten seeds on the
// 2-vCPU reference box (README.md, "Measured spread"). That box is a shared
// VM on which whole runs are 15-30% slower for a minute or two at a time,
// so every timing has the widest bound the driver allows; resident memory
// is steadier. The 90th percentile of the operation latency does not hold
// inside 10% even on a quiet box, so by the issue's rule it is not bounded:
// it is in every detail file and, from the traced run, bench.op_ms_p90.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "step_mlups", Unit: "MLUP/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer are the single-layer metrics of the traced run. They carry no
// bound. Counts of work done on a fixed state repeat run to run (README.md
// marks them "="); bench.spans and fleet.requeues are counts of a time-boxed
// or raced run and do not, and everything else is a timing and moves with
// the host.
var perLayer = []metricDef{
	// kernels — direct PhiSweep/MuSweep on one cubic block.
	{Name: "kernels.phi_interface_mlups", Unit: "MLUP/s", Better: "higher"},
	{Name: "kernels.mu_interface_mlups", Unit: "MLUP/s", Better: "higher"},
	{Name: "kernels.phi_liquid_mlups", Unit: "MLUP/s", Better: "higher"},
	{Name: "kernels.mu_liquid_mlups", Unit: "MLUP/s", Better: "higher"},
	{Name: "kernels.phi_oracle_mlups", Unit: "MLUP/s", Better: "higher"},
	{Name: "kernels.mu_oracle_mlups", Unit: "MLUP/s", Better: "higher"},
	{Name: "kernels.cells_updated", Unit: "count", Better: "higher"},
	{Name: "kernels.phi_flops_per_byte", Unit: "flop/B", Better: "higher"},
	{Name: "kernels.mu_flops_per_byte", Unit: "flop/B", Better: "higher"},
	{Name: "kernels.phi_roofline_frac", Unit: "ratio", Better: "higher"},
	{Name: "kernels.mu_roofline_frac", Unit: "ratio", Better: "higher"},
	// solver — whole steps.
	{Name: "solver.mlups_w1", Unit: "MLUP/s", Better: "higher"},
	{Name: "solver.mlups_wN", Unit: "MLUP/s", Better: "higher"},
	{Name: "solver.parallel_eff", Unit: "ratio", Better: "higher"},
	{Name: "solver.step_self_ms", Unit: "ms", Better: "lower"},
	{Name: "solver.active_fraction", Unit: "ratio", Better: "lower"},
	{Name: "solver.window_shifts", Unit: "count", Better: "higher"},
	{Name: "solver.skip_speedup", Unit: "ratio", Better: "higher"},
	{Name: "solver.tracker_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "solver.telemetry_overhead_frac", Unit: "ratio", Better: "lower"},
	// grid
	{Name: "grid.bc_apply_us", Unit: "us", Better: "lower"},
	// comm — one halo round and a short 2-rank run, in-process and TCP.
	{Name: "comm.inproc_round_us", Unit: "us", Better: "lower"},
	{Name: "comm.tcp_round_us", Unit: "us", Better: "lower"},
	{Name: "comm.bytes_per_step", Unit: "count", Better: "lower"},
	{Name: "comm.frames_per_step", Unit: "count", Better: "lower"},
	{Name: "comm.sleep_tokens", Unit: "count", Better: "higher"},
	{Name: "comm.time_frac", Unit: "ratio", Better: "lower"},
	{Name: "comm.wait_frac", Unit: "ratio", Better: "lower"},
	{Name: "comm.reconnects", Unit: "count", Better: "lower"},
	{Name: "comm.replayed_frames", Unit: "count", Better: "lower"},
	{Name: "comm.pack_allocs", Unit: "count", Better: "lower"},
	// ckpt
	{Name: "ckpt.write_f64_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.write_f32_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.read_ms", Unit: "ms", Better: "lower"},
	{Name: "ckpt.write_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "ckpt.read_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "ckpt.bytes", Unit: "count", Better: "lower"},
	{Name: "ckpt.reshard_ms", Unit: "ms", Better: "lower"},
	// mesh / vtk — the paper's output data-reduction path.
	{Name: "mesh.extract_ms", Unit: "ms", Better: "lower"},
	{Name: "mesh.simplify_ms", Unit: "ms", Better: "lower"},
	{Name: "mesh.output_ms", Unit: "ms", Better: "lower"},
	{Name: "mesh.tris_in", Unit: "count", Better: "lower"},
	{Name: "mesh.tris_out", Unit: "count", Better: "lower"},
	{Name: "mesh.reduction_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mesh.bytes_vs_raw_frac", Unit: "ratio", Better: "lower"},
	{Name: "vtk.write_mb_s", Unit: "MB/s", Better: "higher"},
	// jobd — stages of one small job through the daemon's HTTP API.
	{Name: "jobd.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobd.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobd.first_step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobd.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobd.spill_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobd.result_fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobd.job_done_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobd.jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "jobd.result_bytes", Unit: "count", Better: "lower"},
	{Name: "jobd.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "jobd.preempt_roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "jobd.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "jobd.retries", Unit: "count", Better: "lower"},
	{Name: "jobd.failed", Unit: "count", Better: "lower"},
	// store — direct calls with result-sized blobs.
	{Name: "store.put_blob_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_manifest_ms", Unit: "ms", Better: "lower"},
	{Name: "store.blob_read_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_mb_s", Unit: "MB/s", Better: "higher"},
	// fleet — a small array through the gateway, clean and with a loss.
	{Name: "fleet.admit_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.place_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.replicate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.results_merge_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.probe_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.array_wall_s", Unit: "s", Better: "lower"},
	{Name: "fleet.array_loss_wall_s", Unit: "s", Better: "lower"},
	{Name: "fleet.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "fleet.requeue_cost_s", Unit: "s", Better: "lower"},
	{Name: "fleet.requeues", Unit: "count", Better: "lower"},
	{Name: "fleet.detect_ms", Unit: "ms", Better: "lower"},
	// host / bench
	{Name: "host.stream_triad_gbs", Unit: "GB/s", Better: "higher"},
	{Name: "host.stream_array_mb", Unit: "MB", Better: "higher"},
	{Name: "host.llc_mb", Unit: "MB", Better: "higher"},
	{Name: "host.nproc", Unit: "count", Better: "higher"},
	{Name: "host.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "bench.op_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_cost_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.spans", Unit: "count", Better: "lower"},
	{Name: "bench.generator_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.driver_self_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.probe_s", Unit: "s", Better: "lower"},
}

// defOf looks a metric up in a catalogue.
func defOf(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
