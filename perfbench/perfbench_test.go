package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logicsim"
)

// small returns a workload shrunk so a test runs it in well under a second,
// with its circuit and its inputs set up.
func small(t *testing.T, name string, seed int64) (workload, *circuit.Circuit, []input) {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	w.scale = 0.2
	w.variants = 3
	w.cfg.Cycles = 6
	if w.cfg.Vectors {
		w.cfg.Cycles = 3
	}
	c, ins, err := w.setUpAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	return w, c, ins
}

// layers runs a short traced measurement and returns its per-layer metrics
// by name, failing the test if any repetition disagreed with the oracle.
func layers(t *testing.T, c *circuit.Circuit, ins []input) (map[string]float64, run) {
	t.Helper()
	r := measure(c, ins, 0, newTracer())
	if r.failed != 0 {
		t.Fatalf("%d of %d repetitions failed: %v", r.failed, r.attempted, r.firstErr)
	}
	ms, _ := perLayer(ins, r.samples, 2)
	byName := make(map[string]float64, len(ms))
	for _, m := range ms {
		byName[m.name] = m.value
	}
	return byName, r
}

// withWant returns a copy of ins whose first input expects want.
func withWant(ins []input, want expectation) []input {
	bad := slices.Clone(ins)
	bad[0].want = want
	return bad
}

func TestWrongExpectationCountsAsFailure(t *testing.T) {
	_, c, ins := small(t, "uniform", 1)
	want := ins[0].want
	wrongEvents := expectation{events: want.events + 1, history: want.history}
	wrongHistory := expectation{events: want.events, history: []uint64{want.history[0] ^ 1}}
	for _, bad := range []expectation{wrongEvents, wrongHistory} {
		// Only the first input is wrong: the warm-up and every third timed
		// repetition run it.
		r := measure(c, withWant(ins, bad), 0, nil)
		if r.attempted != minReps+1 || r.failed != 2 {
			t.Errorf("failed %d of %d repetitions, want 2 of %d", r.failed, r.attempted, minReps+1)
		}
		if len(r.samples) != minReps-1 {
			t.Errorf("%d samples, want %d: failed repetitions must contribute no timing", len(r.samples), minReps-1)
		}
	}
	if r := measure(c, ins, 0, nil); r.failed != 0 || len(r.samples) != minReps {
		t.Errorf("right expectations: %d failed, %d samples: %v", r.failed, len(r.samples), r.firstErr)
	}
}

func TestVerifyChecksEveryLane(t *testing.T) {
	for _, name := range []string{"uniform", "vectors"} {
		_, c, ins := small(t, name, 1)
		in := &ins[0]
		res, err := logicsim.Run(c, in.a, in.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(res, in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tampered := []func(r *logicsim.Result){
			func(r *logicsim.Result) { r.CommittedEvents++ },
			func(r *logicsim.Result) { r.OutputHistory++ },
		}
		if in.cfg.Vectors {
			if len(in.want.history) != circuit.W {
				t.Fatalf("oracle gave %d lane histories, want %d", len(in.want.history), circuit.W)
			}
			tampered[1] = func(r *logicsim.Result) { r.VecOutputHistory[circuit.W-1]++ }
		}
		for i, tamper := range tampered {
			bad := res
			bad.VecOutputHistory = slices.Clone(res.VecOutputHistory)
			tamper(&bad)
			if verify(bad, in) == nil {
				t.Errorf("%s: tampered result %d verified", name, i)
			}
		}
	}
}

func TestCountersMoveWhereBuilt(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, c, ins := small(t, name, 1)
			m, r := layers(t, c, ins)
			for _, k := range []string{"timewarp.migrations", "timewarp.rebalance_rounds", "timewarp.route_epoch"} {
				if migrates := name == "hotspot-migrate"; migrates != (m[k] > 0) {
					t.Errorf("%s = %v", k, m[k])
				}
			}
			if e := m["timewarp.efficiency"]; !(e > 0 && e <= 1) {
				t.Errorf("timewarp.efficiency = %v, want in (0, 1]", e)
			}
			for _, in := range ins {
				if got := math.Round(in.quality.CutFraction * float64(c.NumEdges())); got != float64(in.stats.FinalCut) {
					t.Errorf("seed %d: partition.cut_fraction x %d edges = %v, core.final_cut = %v",
						in.seed, c.NumEdges(), got, in.stats.FinalCut)
				}
			}
			for _, smp := range r.samples {
				if smp.scenarioEvents != w.lanes()*smp.stats.EventsCommitted {
					t.Errorf("scenario-events %d, committed %d x %d lanes", smp.scenarioEvents, smp.stats.EventsCommitted, w.lanes())
				}
			}
		})
	}
	if w, _ := newWorkload("vectors", 1); w.lanes() != 64 {
		t.Errorf("vectors runs %d lanes, want 64", w.lanes())
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	// A repetition fails unless the parallel run's events and history equal
	// the oracle's, so comparing the oracle's compares both simulators.
	once := func(seed int64) []expectation {
		_, c, ins := small(t, "uniform", seed)
		if r := measure(c, ins, 0, nil); r.failed != 0 {
			t.Fatalf("seed %d: %v", seed, r.firstErr)
		}
		var got []expectation
		for _, in := range ins {
			got = append(got, in.want)
		}
		return got
	}
	a, b, c := once(1), once(1), once(2)
	if !slices.EqualFunc(a, b, expectation.equal) {
		t.Errorf("seed 1 twice: %v then %v", a, b)
	}
	for i := range a {
		if a[i].events == c[i].events {
			t.Errorf("input %d of seeds 1 and 2 both committed %d events", i, a[i].events)
		}
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json in step with what the
// benchmark prints.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	if !slices.Equal(ws, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", ws, workloadNames)
	}
	_, c, ins := small(t, "uniform", 1)
	r := measure(c, ins, 0, newTracer())
	e2e := endToEnd(ins, r.samples)
	layer, _ := perLayer(ins, r.samples, 2)
	for _, c := range []struct {
		kind   string
		listed []named
		got    []metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layer}} {
		listed := c.listed
		var got []named
		for _, m := range c.got {
			got = append(got, named{m.name, m.unit})
		}
		slices.SortFunc(listed, func(a, b named) int { return strings.Compare(a.Name, b.Name) })
		slices.SortFunc(got, func(a, b named) int { return strings.Compare(a.Name, b.Name) })
		if !slices.Equal(listed, got) {
			t.Errorf("%s: BENCHMARK.json lists %v, benchmark prints %v", c.kind, listed, got)
		}
	}
}
