// Command bench is the repository's benchmark: six workloads, from a
// kernel-bound block to a gateway-fronted job array, each reporting the
// same end-to-end metrics, plus a traced run that adds spans around every
// call into a layer and a per-layer probe suite. See README.md.
//
//	go run -C bench repro/bench                        every workload, one fresh process each
//	go run -C bench repro/bench -trace 1               the same, plus a traced run per workload
//	go run -C bench repro/bench -workload halo_tcp     one workload in this process (the driver's form)
//	go run -C bench repro/bench -selfcheck             A/A: the set twice, orders alternated
//	go run -C bench repro/bench -compare a.json b.json per-metric deltas between result files
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		workload  = flag.String("workload", "", "run this one workload in this process and print the driver's JSON line")
		seed      = flag.Int64("seed", defaultSeed, "workload seed: Voronoi nuclei and sweep-array parameters")
		seconds   = flag.Float64("seconds", 10, "length of the timed part of each run")
		trace     = flag.Int("trace", 0, "1: traced run (spans, trace file, per-layer probes)")
		runs      = flag.Int("runs", 1, "suite mode: runs per workload, seeds seed..seed+runs-1")
		selfcheck = flag.Bool("selfcheck", false, "run the set twice with alternating order and compare against the bounds")
		compare   = flag.Bool("compare", false, "compare result files: -compare a.json[,a2.json...] b.json[,b2.json...]")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("usage: -compare a.json[,a2.json...] b.json[,b2.json...]")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *selfcheck:
		os.Exit(selfCheck(os.Stdout, *seed, *seconds))
	case *workload != "":
		entry, ok := findWorkload(*workload)
		if !ok {
			fatalf("unknown workload %q", *workload)
		}
		res, err := runOne(entry, *seed, *seconds, *trace != 0, calibrated, outDir)
		if err != nil {
			fatalf("%v", err)
		}
		printHuman(os.Stdout, res)
		if err := writeJSONFile(filepath.Join(outDir, detailName(res.Workload, res.Trace)), res); err != nil {
			fatalf("%v", err)
		}
		line, err := driverLine(res)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("%s\n", line)
	default:
		os.Exit(runSuite(os.Stdout, suiteOptions{
			seed: *seed, seconds: *seconds, trace: *trace != 0, runs: *runs,
		}))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// outDir is where everything the benchmark writes goes: out/ in the
// working directory, which `go run -C bench` makes the benchmark's own.
const outDir = "out"

// detailName is the per-run detail file of a workload.
func detailName(workload string, trace bool) string {
	if trace {
		return "detail_" + workload + "_traced.json"
	}
	return "detail_" + workload + ".json"
}
