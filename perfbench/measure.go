package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/circuit"
	"repro/internal/logicsim"
	"repro/internal/timewarp"
)

// span is one timed call made by the benchmark. Spans of one repetition
// share Rep; Parent is -1 for a repetition's root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Rep     int    `json:"rep"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil *tracer records nothing,
// so untraced repetitions pass nil.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, rep int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Rep: rep, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
}

// write stores the spans as a JSON array in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// sample is one repetition that agreed with the oracle.
type sample struct {
	traced bool
	// seqS and twS are host seconds spent in the oracle and in
	// logicsim.Run; cpuS is the process's CPU seconds (user + sys) during
	// logicsim.Run.
	seqS, twS, cpuS float64
	scenarioEvents  uint64
	stats           timewarp.RunStats
	// Heap activity during logicsim.Run, read on traced repetitions only.
	allocBytes, mallocs, gcCycles uint64
}

// run is the outcome of one measurement loop.
type run struct {
	samples           []sample
	attempted, failed int
	firstErr          error
}

// minReps is the fewest timed repetitions a run makes, however short its
// time budget.
const minReps = 3

// measure runs one untimed warm-up repetition, then timed repetitions until
// budget has elapsed, one simulation at a time, cycling through the inputs.
// Every repetition is checked against its input's expectation; one that errs
// or disagrees counts as failed and contributes no timing. Odd
// repetitions record spans and heap counters into tr and even ones run
// untraced, so one run measures both. A nil tr traces nothing.
func measure(c *circuit.Circuit, ins []input, budget time.Duration, tr *tracer) run {
	var r run
	start := time.Now()
	for rep := 0; rep <= minReps || time.Since(start) < budget; rep++ {
		var rt *tracer
		if rep%2 == 1 {
			rt = tr
		}
		in := &ins[max(rep-1, 0)%len(ins)]
		smp, err := repetition(c, in, rt, rep)
		r.attempted++
		switch {
		case err != nil:
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("repetition %d (seed %d): %w", rep, in.seed, err)
			}
		case rep > 0:
			r.samples = append(r.samples, smp)
		}
		if rep == 0 {
			start = time.Now() // the warm-up is not timed
		}
	}
	return r
}

// repetition runs the oracle and then the parallel simulator once each on
// one input and checks both against its expectation. The garbage of earlier
// work is collected before each timed call so it is not charged to it.
func repetition(c *circuit.Circuit, in *input, tr *tracer, rep int) (sample, error) {
	smp := sample{traced: tr != nil}
	root := tr.begin("repetition", -1, rep)
	defer tr.end(root)

	runtime.GC()
	oracle := "seqsim.Run"
	if in.cfg.Vectors {
		oracle = "seqsim.RunVec"
	}
	sp := tr.begin(oracle, root, rep)
	t0 := time.Now()
	got, err := runOracle(c, in.cfg)
	smp.seqS = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return smp, fmt.Errorf("%s: %w", oracle, err)
	}
	if !got.equal(in.want) {
		return smp, fmt.Errorf("%s gave %d events and histories %x, expected %d and %x",
			oracle, got.events, got.history, in.want.events, in.want.history)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	sp = tr.begin("logicsim.Run", root, rep)
	cpu0 := cpuSeconds()
	t0 = time.Now()
	res, err := logicsim.Run(c, in.a, in.cfg)
	smp.twS = time.Since(t0).Seconds()
	smp.cpuS = cpuSeconds() - cpu0
	tr.end(sp)
	if tr != nil {
		runtime.ReadMemStats(&m1)
		smp.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		smp.mallocs = m1.Mallocs - m0.Mallocs
		smp.gcCycles = uint64(m1.NumGC - m0.NumGC)
	}
	if err != nil {
		return smp, fmt.Errorf("logicsim.Run: %w", err)
	}
	if err := verify(res, in); err != nil {
		return smp, err
	}
	smp.scenarioEvents = res.ScenarioEvents
	smp.stats = res.Stats
	return smp, nil
}

// verify returns an error unless a parallel run committed the events and
// the output history, on every lane, that the oracle predicts for in.
func verify(res logicsim.Result, in *input) error {
	got := expectation{events: res.CommittedEvents, history: []uint64{res.OutputHistory}}
	if in.cfg.Vectors {
		got.history = res.VecOutputHistory
	}
	if !got.equal(in.want) {
		return fmt.Errorf("logicsim.Run committed %d events with histories %x, oracle %d and %x",
			got.events, got.history, in.want.events, in.want.history)
	}
	return nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of xs; xs must not be empty.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest nearest-rank percentile of xs that has at least
// ten samples above it, and that percentile. With ten samples or fewer no
// such percentile exists, and tail returns the smallest sample.
func tail(xs []float64) (value, percentile float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < 0 {
		i = 0
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}
