// Command benchfig regenerates the paper's evaluation figures (§5).
//
// Usage:
//
//	benchfig -fig 6 [-edge 60] [-steps 3]
//	benchfig -fig 7 [-cores 16] [-par 1]
//	benchfig -fig 8
//	benchfig -fig 9
//	benchfig -parscale [-edge 60] [-par 8]
//	benchfig -roofline
//	benchfig -all
//
// A -parscale run at a few steps is a smoke run only: at 5 steps the serial
// leg of a 40³ block swung 1.90–3.06 MLUP/s over 16 runs on a 2-vCPU VM, so
// it cannot tell two commits apart. Compare commits with -steps 40.
//
// Figures 6–7 and the measured half of Fig. 8 run live on this machine;
// Figs. 8 (model half) and 9 use the calibrated analytic machine models
// (see DESIGN.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/experiments"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (6..9)")
	roofline := flag.Bool("roofline", false, "print the §5.1.1 roofline / in-core analysis")
	parscale := flag.Bool("parscale", false, "measure intra-block parallel sweep scaling on one block")
	all := flag.Bool("all", false, "regenerate everything")
	edge := flag.Int("edge", 60, "cubic block edge for single-core benchmarks (paper: 60)")
	steps := flag.Int("steps", 3, "timed sweeps per measurement")
	cores := flag.Int("cores", 8, "max worker count for the intranode scaling experiment")
	par := flag.Int("par", 1, "intra-block sweep workers per solver (0 = GOMAXPROCS); -parscale sweeps powers of two up to par, then par itself (par <= 1: the default 1/2/4/8 ladder)")
	flag.Parse()

	w := os.Stdout
	run := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchfig:", err)
			os.Exit(1)
		}
	}

	did := false
	if *all || *fig == 6 {
		run(experiments.Fig6(w, *edge, *steps))
		did = true
	}
	if *all || *fig == 7 {
		run(experiments.Fig7(w, *cores, *steps, *par))
		fmt.Fprintln(w)
		did = true
	}
	if *all || *fig == 8 {
		run(experiments.Fig8(w, *edge, *steps, *cores, *par))
		fmt.Fprintln(w)
		did = true
	}
	if *all || *parscale {
		pmax := *par
		if pmax == 0 {
			pmax = runtime.GOMAXPROCS(0)
		}
		workers := []int{1, 2, 4, 8}
		if pmax > 1 {
			workers = workers[:0]
			for nw := 1; nw < pmax; nw *= 2 {
				workers = append(workers, nw)
			}
			workers = append(workers, pmax)
		}
		run(experiments.ParallelScaling(w, *edge, *steps, workers))
		fmt.Fprintln(w)
		did = true
	}
	if *all || *fig == 9 {
		experiments.Fig9(w)
		fmt.Fprintln(w)
		did = true
	}
	if *all || *roofline {
		run(experiments.Roofline(w, *edge, *steps))
		did = true
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}
}
