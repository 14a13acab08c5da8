package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logicsim"
	"repro/internal/partition"
	"repro/internal/seqsim"
)

// workloadNames lists the benchmark's workloads in the order "all" runs them.
var workloadNames = []string{"uniform", "vectors", "hotspot-migrate"}

// variants is how many inputs one run derives from its seed. Throughput
// depends strongly on the partition a seed yields (its cut and concurrency),
// so a run cycles its repetitions through several inputs and its medians
// describe the workload rather than one partition. It is odd so that the
// traced and untraced repetitions of a traced run both visit every input.
const variants = 31

// workload is one benchmark configuration: a circuit, k clusters and the
// simulator settings. Its inputs differ only in the seed given to the
// stimulus, the partitioner and the rebalancer.
type workload struct {
	name     string
	bench    string
	scale    float64
	k        int
	seed     int64
	variants int
	cfg      logicsim.Config
}

// newWorkload returns the full-size workload called name for seed.
func newWorkload(name string, seed int64) (workload, error) {
	w := workload{name: name, bench: "s9234", scale: 1.0, k: 4, seed: seed, variants: variants}
	// The zero-cost workloads time the kernel itself: no modeled gate grain,
	// network busy-work or latency.
	w.cfg = logicsim.Config{
		OptimismCycles:  0.12,
		GVTPeriodEvents: 1024,
	}
	switch name {
	case "uniform":
		w.cfg.Cycles = 40
	case "vectors":
		w.cfg.Cycles = 10
		w.cfg.Vectors = true
	case "hotspot-migrate":
		w.cfg.Cycles = 40
		w.cfg.Hotspot = true
		w.cfg.HotspotFraction = 0.15
		w.cfg.DynamicRebalance = true
		w.cfg.RebalancePeriodRounds = 2
		w.cfg.RebalanceImbalance = 1.0
		w.cfg.GVTPeriodEvents = 192
		// The paper's modeled costs, under which a remote message costs far
		// more than a local one and the partition's cut becomes wall time.
		w.cfg.Grain = 1500
		w.cfg.NetSendBusy = 2000
		w.cfg.NetRecvBusy = 2000
		w.cfg.NetLatency = 120 * time.Microsecond
	default:
		return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// lanes is the number of scenarios one committed event advances.
func (w *workload) lanes() uint64 {
	if w.cfg.Vectors {
		return circuit.W
	}
	return 1
}

// input is one variant of a workload: the seed-specific simulator settings,
// the partition, and what the oracle says a correct simulation commits.
type input struct {
	cfg     logicsim.Config
	seed    int64
	a       partition.Assignment
	stats   core.Stats
	quality partition.Quality
	want    expectation
	// generateS and partitionS are host seconds spent in circuit generation
	// and in the multilevel partitioner while setting this input up.
	generateS, partitionS float64
}

// setUp generates the circuit and partitions it for variant j, recording
// one span per call under a "setup" span. Every variant generates the same
// circuit; the caller keeps one.
func (w *workload) setUp(tr *tracer, j int) (*circuit.Circuit, input, error) {
	in := input{cfg: w.cfg, seed: w.seed*int64(w.variants) + int64(j)}
	in.cfg.StimulusSeed = in.seed
	in.cfg.RebalanceSeed = in.seed
	root := tr.begin("setup", -1, j)
	defer tr.end(root)

	sp := tr.begin("circuit.NewBenchmark", root, j)
	t0 := time.Now()
	c, err := circuit.NewBenchmark(w.bench, w.scale)
	in.generateS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, in, err
	}

	sp = tr.begin("core.PartitionStats", root, j)
	t0 = time.Now()
	in.a, in.stats, err = core.New(in.seed).PartitionStats(c, w.k)
	in.partitionS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, in, err
	}

	sp = tr.begin("partition.Measure", root, j)
	in.quality, err = partition.Measure("Multilevel", c, in.a)
	tr.end(sp)
	return c, in, err
}

// setUpAll sets up every variant and runs the oracle once on each, untimed,
// to fill in its expectation.
func (w *workload) setUpAll(tr *tracer) (*circuit.Circuit, []input, error) {
	var c *circuit.Circuit
	ins := make([]input, w.variants)
	for j := range ins {
		runtime.GC()
		cj, in, err := w.setUp(tr, j)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", j, err)
		}
		if c == nil {
			c = cj
		}
		ins[j] = in
	}
	for j := range ins {
		want, err := runOracle(c, ins[j].cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle on input %d: %w", j, err)
		}
		ins[j].want = want
	}
	return c, ins, nil
}

// expectation is what a correct simulation of an input commits: the
// oracle's event count and one output-history signature per lane.
type expectation struct {
	events  uint64
	history []uint64
}

func (e expectation) equal(o expectation) bool {
	if e.events != o.events || len(e.history) != len(o.history) {
		return false
	}
	for i := range e.history {
		if e.history[i] != o.history[i] {
			return false
		}
	}
	return true
}

// runOracle runs the sequential simulator with the settings of cfg:
// seqsim.RunVec, which gives every lane's history, for vectored inputs,
// else seqsim.Run with cfg's grain.
func runOracle(c *circuit.Circuit, cfg logicsim.Config) (expectation, error) {
	scfg := seqsim.Config{
		Cycles:          cfg.Cycles,
		StimulusSeed:    cfg.StimulusSeed,
		Hotspot:         cfg.Hotspot,
		HotspotFraction: cfg.HotspotFraction,
	}
	if cfg.Vectors {
		r, err := seqsim.RunVec(c, scfg)
		if err != nil {
			return expectation{}, err
		}
		return expectation{events: r.Events, history: r.OutputHistory}, nil
	}
	sim, err := seqsim.New(c, scfg)
	if err != nil {
		return expectation{}, err
	}
	sim.SetGrain(cfg.Grain)
	r, err := sim.Run()
	if err != nil {
		return expectation{}, err
	}
	return expectation{events: r.Events, history: []uint64{r.OutputHistory}}, nil
}
