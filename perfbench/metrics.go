package main

import "repro/internal/timewarp"

// metric is one reported number. BENCHMARK.json lists the same names.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd computes the metrics a user of the simulator sees: throughput
// of the parallel simulator and of the oracle in scenario-events per second
// of host time, CPU per scenario-event, set-up time and peak memory. Timings
// are medians over the untraced samples, and over the inputs for set-up.
func endToEnd(ins []input, samples []sample) []metric {
	u := pick(samples, false)
	return []metric{
		{"tw_events_per_s", twRate(u), "events/s"},
		{"seq_events_per_s", seqRate(u), "events/s"},
		{"tw_cpu_us_per_event", medianOf(u, func(s sample) float64 {
			return 1e6 * s.cpuS / float64(s.scenarioEvents)
		}), "us/event"},
		{"setup_s", inputMedian(ins, func(in input) float64 { return in.generateS + in.partitionS }), "s"},
		{"peak_rss_mb", peakRSSMB(), "MB"},
	}
}

// layerStats are the per-sample counters of the kernel, named after the
// module that produces them.
var layerStats = []struct {
	name, unit string
	f          func(s sample) float64
}{
	{"logicsim.run_s", "s", func(s sample) float64 { return s.twS }},
	// The part of logicsim.Run outside the kernel's own wall time: handler
	// construction and result extraction.
	{"logicsim.self_s", "s", func(s sample) float64 { return s.twS - s.stats.WallTime.Seconds() }},
	{"logicsim.alloc_bytes_per_event", "B/event", func(s sample) float64 { return perCommitted(s, s.allocBytes) }},
	{"logicsim.allocs_per_event", "allocs/event", func(s sample) float64 { return perCommitted(s, s.mallocs) }},
	{"logicsim.gc_cycles", "count", func(s sample) float64 { return float64(s.gcCycles) }},
	{"timewarp.wall_s", "s", func(s sample) float64 { return s.stats.WallTime.Seconds() }},
	{"timewarp.gvt_rounds", "count", func(s sample) float64 { return float64(s.stats.GVTRounds) }},
	{"timewarp.events_per_gvt_round", "events/round", func(s sample) float64 {
		return ratio(float64(s.stats.EventsCommitted), float64(s.stats.GVTRounds))
	}},
	{"timewarp.efficiency", "fraction", func(s sample) float64 {
		return ratio(float64(s.stats.EventsCommitted), float64(s.stats.EventsProcessed))
	}},
	{"timewarp.rollbacks", "count", func(s sample) float64 { return float64(s.stats.Rollbacks) }},
	{"timewarp.rollback_depth", "events", func(s sample) float64 {
		return ratio(float64(s.stats.EventsRolledBack), float64(s.stats.Rollbacks))
	}},
	{"timewarp.anti_messages", "count", func(s sample) float64 { return float64(s.stats.AntiMessages) }},
	{"timewarp.remote_messages", "count", func(s sample) float64 { return float64(s.stats.RemoteMessages) }},
	{"timewarp.remote_fraction", "fraction", func(s sample) float64 {
		return ratio(float64(s.stats.RemoteMessages), float64(s.stats.RemoteMessages+s.stats.LocalMessages))
	}},
	{"timewarp.migrations", "count", func(s sample) float64 { return float64(s.stats.Migrations) }},
	{"timewarp.forwarded_messages", "count", func(s sample) float64 { return float64(s.stats.ForwardedMessages) }},
	{"timewarp.rebalance_rounds", "count", func(s sample) float64 { return float64(s.stats.RebalanceRounds) }},
	{"timewarp.route_epoch", "count", func(s sample) float64 { return float64(s.stats.RouteEpoch) }},
	{"timewarp.cluster_imbalance", "ratio", func(s sample) float64 { return clusterImbalance(s.stats.PerCluster) }},
	{"seqsim.run_s", "s", func(s sample) float64 { return s.seqS }},
}

// perLayer computes the per-layer metrics of a traced run: set-up timings
// and partition quality as medians over the inputs, kernel counters as
// medians over the traced samples, the tail of the kernel's wall time over
// all samples, and the tracing overhead as the traced samples' throughput
// deficit against the untraced ones of the same run.
func perLayer(ins []input, samples []sample, procs int) (ms []metric, tailPct float64) {
	t := pick(samples, true)
	over := func(name, unit string, f func(in input) float64) metric {
		return metric{name, inputMedian(ins, f), unit}
	}
	ms = []metric{
		over("circuit.generate_s", "s", func(in input) float64 { return in.generateS }),
		over("core.partition_s", "s", func(in input) float64 { return in.partitionS }),
		over("core.final_cut", "count", func(in input) float64 { return float64(in.stats.FinalCut) }),
		over("core.initial_cut", "count", func(in input) float64 { return float64(in.stats.InitialCut) }),
		over("core.levels", "count", func(in input) float64 { return float64(in.stats.Levels) }),
		over("core.coarsest_size", "count", func(in input) float64 { return float64(in.stats.CoarsestSize) }),
		over("core.refine_passes", "count", func(in input) float64 { return float64(in.stats.RefinePasses) }),
		over("partition.cut_fraction", "fraction", func(in input) float64 { return in.quality.CutFraction }),
		over("partition.imbalance", "fraction", func(in input) float64 { return in.quality.Imbalance }),
		over("partition.concurrency", "fraction", func(in input) float64 { return in.quality.Concurrency }),
		over("partition.source_spread", "fraction", func(in input) float64 { return in.quality.SourceSpread }),
	}
	for _, l := range layerStats {
		ms = append(ms, metric{l.name, medianOf(t, l.f), l.unit})
	}
	walls := make([]float64, len(samples))
	for i, smp := range samples {
		walls[i] = smp.stats.WallTime.Seconds()
	}
	tailS, tailPct := tail(walls)
	overhead := 1 - twRate(t)/twRate(pick(samples, false))
	ms = append(ms,
		metric{"timewarp.cpu_util", medianOf(t, func(s sample) float64 {
			return s.cpuS / (s.twS * float64(procs))
		}), "fraction"},
		metric{"timewarp.run_s_tail", tailS, "s"},
		metric{"trace.overhead", overhead, "fraction"},
	)
	return ms, tailPct
}

func twRate(ss []sample) float64 {
	return medianOf(ss, func(s sample) float64 { return float64(s.scenarioEvents) / s.twS })
}

func seqRate(ss []sample) float64 {
	return medianOf(ss, func(s sample) float64 { return float64(s.scenarioEvents) / s.seqS })
}

// pick returns the samples whose traced flag equals traced.
func pick(ss []sample, traced bool) []sample {
	var out []sample
	for _, s := range ss {
		if s.traced == traced {
			out = append(out, s)
		}
	}
	return out
}

func inputMedian(ins []input, f func(input) float64) float64 {
	xs := make([]float64, len(ins))
	for i, in := range ins {
		xs[i] = f(in)
	}
	return median(xs)
}

func medianOf(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

func perCommitted(s sample, n uint64) float64 {
	return ratio(float64(n), float64(s.stats.EventsCommitted))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clusterImbalance is the largest per-cluster committed-event count over the
// mean.
func clusterImbalance(pc []timewarp.ClusterStats) float64 {
	if len(pc) == 0 {
		return 0
	}
	var maxC, sum float64
	for _, c := range pc {
		v := float64(c.EventsCommitted)
		sum += v
		if v > maxC {
			maxC = v
		}
	}
	return ratio(maxC, sum/float64(len(pc)))
}
