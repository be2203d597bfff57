package main

// sizes.go — the frozen problem sizes. They were calibrated once on the
// 2-vCPU reference box so that the default 10 s timed part of every
// workload holds enough operations for a steady median and a tail
// percentile with ten or more samples beyond it (README.md, "Sizes").
// The timed part is time-boxed, so a faster or slower host changes the
// sample count, not the run length.

// sizes parameterizes every workload and probe. The smoke test runs the
// same code at toySizes.
type sizes struct {
	// dense_interface: one cubic all-interface block.
	DenseEdge int
	// sparse_column: production nuclei under a tall melt column.
	SparseNX, SparseNY, SparseNZ int
	SparseWarm                   int // settle steps in set-up (tracker, first transient)
	// halo_tcp: PX×1×1 blocks of this size, one rank per TCP process.
	HaloBX, HaloBY, HaloBZ int
	HaloStepsPerOp         int // lockstep steps timed as one operation
	// io_cycle: a planar front cycled through checkpoint files.
	IONX, IONY, IONZ int
	IOStepsPerCycle  int
	IOOutputEvery    int // interface-mesh output every n-th cycle
	IOTargetTris     int // simplify-to-target of the mesh output
	// daemon_smalljobs / fleet_array: the examples/sweep job template.
	JobNX, JobNY, JobNZ int
	JobSteps            int
	BurstN              int // jobs per burst in daemon_smalljobs phase B
	FleetVmax           int // array axis lengths: children = FleetVmax × FleetSeeds
	FleetSeeds          int
	FleetKillAfter      int // kill daemon 1 when this many children have settled
	// probe sizes
	ProbeEdge  int // kernels / solver / grid probes
	ProbeJobs  int // closed-loop jobs of the jobd probe
	TriadMaxMB int // cap on each STREAM-triad array, MiB
}

// calibrated is the frozen size set of BENCHMARK.json's workloads.
var calibrated = sizes{
	DenseEdge: 40,
	SparseNX:  32, SparseNY: 32, SparseNZ: 256, SparseWarm: 20,
	HaloBX: 4, HaloBY: 16, HaloBZ: 16, HaloStepsPerOp: 10,
	IONX: 32, IONY: 32, IONZ: 32, IOStepsPerCycle: 4, IOOutputEvery: 3, IOTargetTris: 500,
	JobNX: 12, JobNY: 12, JobNZ: 24, JobSteps: 16, BurstN: 24,
	FleetVmax: 6, FleetSeeds: 4, FleetKillAfter: 6,
	ProbeEdge: 32, ProbeJobs: 8, TriadMaxMB: 128,
}

// toySizes keeps every code path and shrinks every domain: the smoke test
// runs all six workloads and the probes in a few seconds.
var toySizes = sizes{
	DenseEdge: 10,
	SparseNX:  8, SparseNY: 8, SparseNZ: 48, SparseWarm: 4,
	HaloBX: 6, HaloBY: 8, HaloBZ: 8, HaloStepsPerOp: 2,
	IONX: 8, IONY: 8, IONZ: 12, IOStepsPerCycle: 2, IOOutputEvery: 2, IOTargetTris: 40,
	JobNX: 6, JobNY: 6, JobNZ: 24, JobSteps: 12, BurstN: 4,
	FleetVmax: 2, FleetSeeds: 2, FleetKillAfter: 1,
	ProbeEdge: 10, ProbeJobs: 3, TriadMaxMB: 4,
}
