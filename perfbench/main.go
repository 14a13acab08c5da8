// Command perfbench is the repository's benchmark. It runs the pipeline
// circuit.NewBenchmark → core.(*Multilevel).PartitionStats /
// partition.Measure → seqsim (the oracle) → logicsim.Run on one workload,
// checks every simulation against the oracle, and prints each metric with
// its unit, ending with one JSON line. With --trace 0 it reports end-to-end
// metrics; with --trace 1 it records spans around every call and reports
// per-layer metrics. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload uniform --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "uniform", "workload: uniform, vectors, hotspot-migrate, or all (each in its own process)")
	seed := flag.Int64("seed", 1, "seed the run's inputs derive their stimulus, partitioner and rebalancer seeds from")
	seconds := flag.Float64("seconds", 30, "host seconds to spend in timed repetitions")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 records spans and reports per-layer metrics")
	flag.Parse()
	if raceEnabled {
		fatal(errors.New("refusing to report: this binary was built with the race detector"))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace %d: want 0 or 1", *trace))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if *name == "all" {
		if err := runAll(); err != nil {
			fatal(err)
		}
		return
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fatal(err)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	if err := benchmark(&w, budget, *trace == 1); err != nil {
		fatal(err)
	}
}

// runAll runs every workload with the same flags, each in a child process so
// that peak_rss_mb stays per workload.
func runAll() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, n := range workloadNames {
		args := []string{"--workload", n}
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "--"+f.Name, f.Value.String())
			}
		})
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", n, err)
		}
	}
	return nil
}

// benchmark sets up the workload's inputs, runs the oracle once on each to
// get its expectation, measures, and prints the report.
func benchmark(w *workload, budget time.Duration, trace bool) error {
	procs := runtime.GOMAXPROCS(0)
	fmt.Printf("perfbench workload=%s seed=%d trace=%t\n", w.name, w.seed, trace)
	fmt.Printf("host: GOMAXPROCS=%d NumCPU=%d go=%s %s/%s\n",
		procs, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	var tr *tracer
	if trace {
		tr = newTracer()
	}
	c, ins, err := w.setUpAll(tr)
	if err != nil {
		return err
	}
	var events uint64
	for _, in := range ins {
		events += in.want.events
	}
	fmt.Printf("input: %s, %d gates, %d edges, k=%d, %d cycles; %d inputs (seeds %d..%d), oracle mean %d events x %d lanes\n",
		c.Name, c.NumGates(), c.NumEdges(), w.k, w.cfg.Cycles, len(ins), ins[0].seed, ins[len(ins)-1].seed,
		events/uint64(len(ins)), w.lanes())

	r := measure(c, ins, budget, tr)
	fmt.Printf("repetitions: 1 warm-up + %d timed, %d verified against the oracle\n",
		r.attempted-1, len(r.samples))
	fmt.Printf("failed_runs %d/%d = %g\n", r.failed, r.attempted, float64(r.failed)/float64(r.attempted))
	if r.firstErr != nil {
		fmt.Printf("first failure: %v\n", r.firstErr)
	}
	untraced := pick(r.samples, false)
	if len(untraced) == 0 || (trace && len(pick(r.samples, true)) == 0) {
		return fmt.Errorf("no verified repetition to report: %v", r.firstErr)
	}

	var ms []metric
	if trace {
		var tailPct float64
		ms, tailPct = perLayer(ins, r.samples, procs)
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", w.name, w.seed))
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
		fmt.Printf("timewarp.run_s_tail is p%.0f of n=%d; medians over n=%d traced repetitions, trace.overhead against n=%d untraced\n",
			tailPct, len(r.samples), len(r.samples)-len(untraced), len(untraced))
	} else {
		ms = endToEnd(ins, r.samples)
		fmt.Printf("medians over n=%d repetitions; setup_s over n=%d set-ups\n", len(untraced), len(ins))
		fmt.Printf("speedup_vs_seq %.4g (tw_events_per_s / seq_events_per_s, not gated)\n",
			twRate(untraced)/seqRate(untraced))
	}
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		fmt.Printf("%-32s %16.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
