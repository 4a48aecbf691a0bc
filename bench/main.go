// Command bench is the repository's one benchmark: four workloads, ten
// end-to-end metrics measured with tracing off, and a traced run that reports
// one row per layer a query crosses. See README.md.
//
//	bash bench/run.sh -workload lib-short -seed 1 -seconds 12 -trace 0
//	bash bench/run.sh -workload serve-rw -seed 1 -seconds 12 -trace spans.json
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: lib-short, lib-long, metric-dtw or serve-rw")
		seed     = flag.Int64("seed", 1, "seed of the operation pool")
		seconds  = flag.Float64("seconds", 12, "length of the timed window")
		trace    = flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; any other value: the traced run, with its spans written to that file")
		out      = flag.String("out", "", "append the run, with its metadata, to this JSON document")
		compare  = flag.Bool("compare", false, "compare two -out documents: bench -compare old.json new.json")
		bounds   = flag.String("bounds", "BENCHMARK.json", "with -compare, the file that holds the regression bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two documents, got %d", flag.NArg()))
		}
		regressed, err := compareDocuments(os.Stdout, *bounds, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	w := findWorkload(*workload)
	if w == nil {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 || *trace == "" {
		fail(fmt.Errorf("need -seconds > 0 and -trace 0, 1 or a file for the spans"))
	}
	tm := timing{setupReps: 3, timed: time.Duration(*seconds * float64(time.Second))}

	var (
		rec  *runRecord
		defs = endToEnd
		err  error
	)
	if *trace != "0" {
		spans := *trace
		if spans == "1" {
			spans = "" // the driver's form: traced, spans not kept
		}
		defs = perLayer
		rec, err = runTraced(w, *seed, tm, spans)
	} else {
		rec, err = runEndToEnd(w, *seed, tm)
	}
	if err == nil {
		err = rec.check(defs)
	}
	if err != nil {
		fail(fmt.Errorf("%s: %w", w.name, err))
	}
	rec.Seconds = *seconds
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fail(err)
		}
	}
	if err := rec.print(os.Stdout, defs); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
