// Command paebench regenerates the paper's tables and figures on the
// synthetic corpus and prints them as text tables.
//
// Usage:
//
//	paebench -exp table1            # one experiment
//	paebench -exp table1,title      # several, comma-separated
//	paebench -exp all               # everything, in paper order
//	paebench -list                  # list experiment ids
//	paebench -exp table2 -items 300 -seed 7
//	paebench -exp table2 -cpuprofile cpu.out -memprofile mem.out
//	paebench -exp all -workers 4    # bound every worker pool at 4
//
// Experiments run concurrently on the -workers bound and print in registry
// order. paebench reports each experiment's wall clock but is not a
// benchmark: perfbench (BENCHMARK.json) is.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/par"
)

func main() {
	var (
		id         = flag.String("exp", "all", "experiment id (see -list)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		seed       = flag.Uint64("seed", 0, "corpus/model seed (0 = default)")
		items      = flag.Int("items", 0, "items per category (0 = default)")
		iters      = flag.Int("iterations", 0, "bootstrap iterations (0 = paper's 5)")
		workers    = flag.Int("workers", 0, "worker-pool bound for generation, pipeline stages, and experiment fan-out (0 = one per CPU); never changes output")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/pprof and /debug/vars on this address")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiments to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.Experiments {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	if *debugAddr != "" {
		closer, addr, err := obs.StartDebugServer(*debugAddr, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer closer.Close()
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s/debug/pprof/\n", addr)
	}
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stop()
	}
	defer func() {
		if *memprofile != "" {
			if err := obs.WriteHeapProfile(*memprofile); err != nil {
				fmt.Fprintf(os.Stderr, "%v\n", err)
			}
		}
	}()

	s := exp.Settings{Seed: *seed, Items: *items, Iterations: *iters, Workers: *workers}

	var exps []exp.Experiment
	if *id == "all" {
		exps = exp.Experiments
	} else {
		for _, one := range strings.Split(*id, ",") {
			one = strings.TrimSpace(one)
			if one == "" {
				continue
			}
			e, ok := exp.ByID(one)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", one)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
		if len(exps) == 0 {
			fmt.Fprintf(os.Stderr, "no experiments selected; use -list\n")
			os.Exit(2)
		}
	}

	// Experiments fan out on the same worker bound as the pools inside them;
	// the singleflight run cache makes concurrent experiments that share a
	// configuration pay for it once. Output stays in paper order regardless
	// of completion order.
	outputs := make([]string, len(exps))
	durations := make([]float64, len(exps))
	err := par.ForEach(context.Background(), *workers, len(exps), func(i int) error {
		start := time.Now()
		outputs[i] = exps[i].Run(s)
		durations[i] = time.Since(start).Seconds()
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, e := range exps {
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		fmt.Println(outputs[i])
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, durations[i])
	}
}
