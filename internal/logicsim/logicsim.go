// Package logicsim simulates gate-level circuits on the Time Warp kernel:
// every gate is a logical process, signal changes are timestamped events,
// and a partition assignment maps gates to simulation nodes. Semantics are
// identical to internal/seqsim (timestep evaluation, sender delay, hash
// stimulus), so a parallel run commits exactly the events a sequential run
// processes and produces the same output history — the cross-check used by
// the integration tests.
package logicsim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/seqsim"
	"repro/internal/timewarp"
)

// Event kinds on the wire.
const (
	kindSignal int32 = iota
	kindStimulus
	kindClock
)

// Config parameterizes a parallel simulation run. Cycles, ClockPeriod,
// StimulusSeed and StimulusEvery have the same meaning as in seqsim.Config;
// identical values make runs comparable.
type Config struct {
	Cycles        int
	ClockPeriod   int64
	StimulusSeed  int64
	StimulusEvery int

	// Vectors enables bit-parallel evaluation: every gate carries circuit.W
	// independent scenarios (lane s driven by StimulusSeed+s) in packed
	// val/unknown planes, signal events ship the planes in the kernel's wide
	// payload block, and one committed event advances all W scenarios. Lane
	// s of a vectored run is bit-identical to the scalar run with seed
	// StimulusSeed+s (see Result's Vec* fields and internal/seqsim.RunVec).
	Vectors bool

	// Hotspot and HotspotFraction concentrate stimulus in a rotating window
	// of the primary inputs, exactly as in seqsim.Config: both simulators
	// share seqsim.HotspotActive, so hotspot runs stay oracle-comparable.
	Hotspot         bool
	HotspotFraction float64

	// DynamicRebalance enables GVT-synchronized LP migration: the kernel
	// periodically snapshots the observed per-gate activity and send
	// matrix, refines the current assignment with core.Rebalance, and
	// migrates gates whose best home moved. Committed results are
	// placement-independent, so a dynamic run still matches the oracle.
	DynamicRebalance bool
	// RebalancePeriodRounds is the number of GVT-advancing rounds between
	// rebalance decisions (default 4).
	RebalancePeriodRounds int
	// RebalanceImbalance skips migration while max/mean per-cluster
	// committed load is below this ratio (default 1.1; 1.0 rebalances on
	// any imbalance, useful in tests).
	RebalanceImbalance float64
	// RebalanceSeed drives the refinement visit order of each rebalance.
	RebalanceSeed int64
	// LoadSmoothing is the kernel's EWMA coefficient over per-LP load
	// windows (timewarp.Config.LoadSmoothing): 0 defaults to 0.5, 1
	// disables smoothing so each rebalance sees only its own window.
	LoadSmoothing float64

	// Grain burns this many iterations of CPU per gate evaluation, modeling
	// the heavyweight VHDL processes of the paper's TYVIS kernel. Zero
	// disables it.
	Grain int

	// OptimismCycles bounds optimistic execution to GVT plus this many
	// clock periods of virtual time (0 = unbounded).
	OptimismCycles float64

	// GVTPeriodEvents, LazyCancellation, NetSendBusy, NetRecvBusy,
	// NetLatency, InboxSize and FlushBatch pass through to the Time Warp
	// kernel (the Net* fields land in timewarp.NetConfig).
	GVTPeriodEvents  int
	LazyCancellation bool
	NetSendBusy      int
	NetRecvBusy      int
	NetLatency       time.Duration
	InboxSize        int
	FlushBatch       int

	// Transport selects the kernel's communication fabric: nil runs every
	// cluster in this process (the in-memory transport); a
	// timewarp.NewTCPTransport spreads the clusters over N OS processes, of
	// which this one hosts a share (see Result.Local).
	Transport timewarp.Transport
}

func (cfg *Config) setDefaults(c *circuit.Circuit) error {
	if cfg.Cycles <= 0 {
		cfg.Cycles = 1
	}
	if cfg.StimulusEvery <= 0 {
		cfg.StimulusEvery = 1
	}
	if cfg.ClockPeriod == 0 {
		p, err := seqsim.MinClockPeriod(c)
		if err != nil {
			return err
		}
		cfg.ClockPeriod = p
	}
	if cfg.ClockPeriod < 2 {
		return fmt.Errorf("logicsim: clock period %d too small", cfg.ClockPeriod)
	}
	if cfg.Hotspot && cfg.HotspotFraction == 0 {
		cfg.HotspotFraction = 0.25
	}
	if cfg.HotspotFraction < 0 || cfg.HotspotFraction > 1 {
		return fmt.Errorf("logicsim: hotspot fraction %v outside [0,1]", cfg.HotspotFraction)
	}
	if cfg.DynamicRebalance && cfg.RebalanceImbalance == 0 {
		cfg.RebalanceImbalance = 1.1
	}
	return nil
}

// Result reports a parallel run in seqsim-comparable terms plus the Time
// Warp statistics.
type Result struct {
	// CommittedEvents is the number of application events committed; it
	// must equal the Events count of a sequential run with the same Config.
	// Under a multi-process transport it covers only the clusters this
	// process hosted — sum it across nodes.
	CommittedEvents uint64
	// OutputValues and OutputHistory mirror seqsim.Result. Multi-process
	// runs report only locally-hosted gates (see Local); OutputHistory is an
	// order-independent sum, so adding the nodes' values reconstructs the
	// single-process figure exactly.
	OutputValues  []circuit.Value
	OutputHistory uint64
	// FinalValues is the final output value of every gate this process
	// hosted; entries for remote gates are circuit.X.
	FinalValues []circuit.Value
	// Local reports, per gate, whether this process hosted the gate when the
	// run finished (always true on a single node). Callers merging
	// multi-process results use it to pick exactly one owner per gate.
	Local []bool
	// ScenarioEvents is the number of scenario-events committed: equal to
	// CommittedEvents in scalar mode, CommittedEvents × circuit.W in
	// vectored mode (each committed event advances W scenarios). This is the
	// numerator of the scenario-events/sec throughput metric.
	ScenarioEvents uint64
	// VecOutputValues, VecOutputHistory and VecFinalValues are the per-lane
	// views of a vectored run (nil in scalar mode): VecOutputValues[i].Lane(s)
	// and VecFinalValues[id].Lane(s) are lane s's final values, and
	// VecOutputHistory[s] is lane s's order-insensitive output signature —
	// each bit-identical to the scalar (and seqsim) run with StimulusSeed+s.
	// Multi-process runs report only locally-hosted gates, exactly like the
	// scalar fields; the per-lane histories are order-insensitive sums, so
	// adding the nodes' values reconstructs each lane exactly. The scalar
	// OutputValues/OutputHistory/FinalValues fields hold lane 0's view.
	VecOutputValues  []circuit.VecValue
	VecOutputHistory []uint64
	VecFinalValues   []circuit.VecValue
	// Stats carries the kernel counters (rollbacks, messages, GVT rounds)
	// for the clusters this process hosted.
	Stats timewarp.RunStats
}

// shared holds the immutable tables every gate LP reads.
type shared struct {
	c   *circuit.Circuit
	cfg Config
}

// lanes is the set of operations that differ between the scalar and the
// vectored gate LP. It is implemented by the zero-size types scalar (V =
// circuit.Value, one scenario) and vector (V = circuit.VecValue, circuit.W
// scenarios in packed planes); everything else about a gate LP is written
// once, over lane masks, with scalar as a one-lane vector.
type lanes[V any] interface {
	width() int
	allX() V
	// diff returns the mask of lanes whose values differ between a and b.
	diff(a, b V) uint64
	lane(v V, i int) circuit.Value
	eval(t circuit.GateType, in []V) V
	stimulus(seed int64, input, cycle int) V
	// recv and send move a signal value through an event.
	recv(ev *timewarp.Event) V
	send(ctx *timewarp.Context, to timewarp.LPID, t timewarp.Time, v V)
	// size, put and get are the fixed-width value codec of EncodeState.
	size() int
	put(buf []byte, v V) []byte
	get(b []byte) (V, error)
}

// scalar carries one scenario per gate. Signals ride in Event.Value, so the
// wide payload stays zero and scalar frames stay narrow on the wire.
type scalar struct{}

func (scalar) width() int          { return 1 }
func (scalar) allX() circuit.Value { return circuit.X }
func (scalar) diff(a, b circuit.Value) uint64 {
	if a != b {
		return 1
	}
	return 0
}
func (scalar) lane(v circuit.Value, _ int) circuit.Value { return v }
func (scalar) eval(t circuit.GateType, in []circuit.Value) circuit.Value {
	return circuit.Eval(t, in)
}
func (scalar) stimulus(seed int64, input, cycle int) circuit.Value {
	return seqsim.StimulusBit(seed, input, cycle)
}
func (scalar) recv(ev *timewarp.Event) circuit.Value { return circuit.Value(ev.Value) }
func (scalar) send(ctx *timewarp.Context, to timewarp.LPID, t timewarp.Time, v circuit.Value) {
	ctx.Send(to, t, kindSignal, int32(v))
}
func (scalar) size() int                              { return 1 }
func (scalar) put(buf []byte, v circuit.Value) []byte { return append(buf, byte(v)) }
func (scalar) get(b []byte) (circuit.Value, error) {
	if v := circuit.Value(b[0]); v <= circuit.Z {
		return v, nil
	}
	return circuit.X, fmt.Errorf("value byte %d out of range", b[0])
}

// vector carries circuit.W scenarios per gate (lane s driven by
// StimulusSeed+s). Signals ship the val/unknown planes in the kernel's wide
// payload block.
type vector struct{}

func (vector) width() int                                   { return circuit.W }
func (vector) allX() circuit.VecValue                       { return circuit.BroadcastVec(circuit.X) }
func (vector) diff(a, b circuit.VecValue) uint64            { return a.Diff(b) }
func (vector) lane(v circuit.VecValue, i int) circuit.Value { return v.Lane(i) }
func (vector) eval(t circuit.GateType, in []circuit.VecValue) circuit.VecValue {
	return circuit.EvalVec(t, in)
}
func (vector) stimulus(seed int64, input, cycle int) circuit.VecValue {
	return seqsim.StimulusVec(seed, input, cycle)
}
func (vector) recv(ev *timewarp.Event) circuit.VecValue {
	return circuit.VecValue{Val: ev.Pay.P0, Unknown: ev.Pay.P1}
}
func (vector) send(ctx *timewarp.Context, to timewarp.LPID, t timewarp.Time, v circuit.VecValue) {
	ctx.SendP(to, t, kindSignal, 0, timewarp.Payload{P0: v.Val, P1: v.Unknown})
}
func (vector) size() int { return 16 }
func (vector) put(buf []byte, v circuit.VecValue) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, v.Val), v.Unknown)
}
func (vector) get(b []byte) (circuit.VecValue, error) {
	v := circuit.VecValue{Val: binary.LittleEndian.Uint64(b), Unknown: binary.LittleEndian.Uint64(b[8:])}
	if v.Val&v.Unknown != 0 {
		return v, fmt.Errorf("non-canonical planes %#x/%#x", v.Val, v.Unknown)
	}
	return v, nil
}

// gateState is the mutable state of one gate LP, the part EncodeState
// saves. hist holds one output-history term per lane and is allocated only
// for primary-output gates (nil otherwise), so the saved states of interior
// gates stay small.
type gateState[V any] struct {
	inputs []V
	out    V
	ff     V
	hist   []uint64
}

// gateLP is the timewarp.Handler for one gate: gateLP[circuit.Value, scalar]
// in scalar runs, gateLP[circuit.VecValue, vector] in vectored ones.
type gateLP[V any, L lanes[V]] struct {
	sim      *shared
	id       int
	typ      circuit.GateType
	inputIdx int   // index in c.Inputs, or -1
	outIdx   int   // index in c.Outputs, or -1
	fanin    []int // driver gate ID per input pin
	fanout   []int // deduplicated fanout gate IDs
	delay    int64
	st       gateState[V]
}

func newGateLP[V any, L lanes[V]](sim *shared, g *circuit.Gate, inputIdx, outIdx int) *gateLP[V, L] {
	var ops L
	lp := &gateLP[V, L]{
		sim:      sim,
		id:       g.ID,
		typ:      g.Type,
		inputIdx: inputIdx,
		outIdx:   outIdx,
		fanin:    g.Fanin,
		delay:    seqsim.GateDelay(g),
	}
	if outIdx >= 0 {
		lp.st.hist = make([]uint64, ops.width())
	}
	seen := make(map[int]struct{}, len(g.Fanout))
	for _, d := range g.Fanout {
		if _, dup := seen[d]; dup {
			continue
		}
		seen[d] = struct{}{}
		lp.fanout = append(lp.fanout, d)
	}
	lp.st.inputs = make([]V, len(g.Fanin))
	for i := range lp.st.inputs {
		lp.st.inputs[i] = ops.allX()
	}
	lp.st.out = ops.allX()
	lp.st.ff = ops.allX()
	return lp
}

// Init schedules the LP's first self-event: the first stimulus cycle for
// primary inputs (cycle 0, unless a hotspot window excludes this input until
// later), the cycle-0 clock edge for flip-flops. Subsequent cycles chain
// from Execute so the pending queues stay small.
func (lp *gateLP[V, L]) Init(ctx *timewarp.Context) {
	switch lp.typ {
	case circuit.Input:
		if first := lp.nextStimulusCycle(0); first >= 0 {
			ctx.Send(ctx.Self(), int64(first)*lp.sim.cfg.ClockPeriod, kindStimulus, 0)
		}
	case circuit.DFF:
		ctx.Send(ctx.Self(), lp.sim.cfg.ClockPeriod/2, kindClock, 0)
	}
}

// nextStimulusCycle returns this input LP's first stimulus cycle at or after
// `from`, or -1; the shared schedule keeps parallel runs oracle-identical.
func (lp *gateLP[V, L]) nextStimulusCycle(from int) int {
	cfg := &lp.sim.cfg
	return seqsim.NextStimulusCycle(from, cfg.Cycles, cfg.StimulusEvery,
		len(lp.sim.c.Inputs), lp.inputIdx, cfg.Hotspot, cfg.HotspotFraction)
}

// Execute implements the shared timestep semantics over every lane at once:
// apply every arrival, then evaluate once with final inputs. An event fires
// downstream when any lane changed; a lane whose component is unchanged sees
// a no-op, which is what keeps each lane bit-identical to its scalar run.
func (lp *gateLP[V, L]) Execute(ctx *timewarp.Context, now timewarp.Time, events []timewarp.Event) {
	var ops L
	cfg := &lp.sim.cfg
	var stimulus, clocked bool
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case kindSignal:
			v := ops.recv(ev)
			for pin, src := range lp.fanin {
				if src == int(ev.Sender) {
					lp.st.inputs[pin] = v
				}
			}
		case kindStimulus:
			stimulus = true
		case kindClock:
			clocked = true
		}
	}

	switch {
	case stimulus:
		cycle := int(now / cfg.ClockPeriod)
		seqsim.Burn(cfg.Grain)
		v := ops.stimulus(cfg.StimulusSeed, lp.inputIdx, cycle)
		if ops.diff(v, lp.st.out) != 0 {
			lp.st.out = v
			lp.emit(ctx, now)
		}
		if next := lp.nextStimulusCycle(cycle + 1); next >= 0 {
			ctx.Send(ctx.Self(), int64(next)*cfg.ClockPeriod, kindStimulus, 0)
		}
	case lp.typ == circuit.DFF:
		if clocked {
			seqsim.Burn(cfg.Grain)
			d := lp.st.inputs[0]
			if ops.diff(d, lp.st.ff) != 0 {
				lp.st.ff = d
				if changed := ops.diff(lp.st.out, d); changed != 0 {
					lp.st.out = d
					lp.note(now, changed)
					lp.emit(ctx, now)
				}
			}
			cycle := int((now - cfg.ClockPeriod/2) / cfg.ClockPeriod)
			if next := cycle + 1; next < cfg.Cycles {
				ctx.Send(ctx.Self(), int64(next)*cfg.ClockPeriod+cfg.ClockPeriod/2, kindClock, 0)
			}
		}
		// Plain D-pin arrivals latch nothing until the next clock edge.
	default:
		seqsim.Burn(cfg.Grain)
		out := ops.eval(lp.typ, lp.st.inputs)
		if changed := ops.diff(out, lp.st.out); changed != 0 {
			lp.st.out = out
			lp.note(now, changed)
			lp.emit(ctx, now)
		}
	}
}

// emit sends the LP's (already updated) output to its fanout with sender
// delay.
func (lp *gateLP[V, L]) emit(ctx *timewarp.Context, now timewarp.Time) {
	if lp.typ == circuit.Output {
		return
	}
	var ops L
	for _, d := range lp.fanout {
		ops.send(ctx, timewarp.LPID(d), now+lp.delay, lp.st.out)
	}
}

// note records the changed lanes of a primary-output update in their
// per-lane rollback-safe signatures.
func (lp *gateLP[V, L]) note(t timewarp.Time, changed uint64) {
	if lp.outIdx < 0 {
		return
	}
	var ops L
	for m := changed; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(m)
		lp.st.hist[lane] += seqsim.OutputHash(t, lp.outIdx, ops.lane(lp.st.out, lane))
	}
}

// EncodeState implements timewarp.Handler. The kernel saves it before every
// bundle, and it carries a gate across a multi-process migration: the
// mutable simulation state is exactly gateState — the rest of gateLP is
// immutable tables every replica builds identically from the circuit.
// Layout, little-endian, with fixed-width values (one byte scalar, val and
// unknown u64 planes vectored):
// [npins u8][npins values][out][ff][u64 × lanes, primary outputs only].
// Run refuses gates with more than maxPins pins, so npins fits its byte.
func (lp *gateLP[V, L]) EncodeState(buf []byte) []byte {
	var ops L
	buf = append(buf, byte(len(lp.st.inputs)))
	for _, v := range lp.st.inputs {
		buf = ops.put(buf, v)
	}
	buf = ops.put(ops.put(buf, lp.st.out), lp.st.ff)
	for _, h := range lp.st.hist {
		buf = binary.LittleEndian.AppendUint64(buf, h)
	}
	return buf
}

// DecodeState implements timewarp.Handler. The payload must match this
// gate's pin count and primary-output status exactly, and every value must
// be one EncodeState can produce.
func (lp *gateLP[V, L]) DecodeState(data []byte) error {
	var ops L
	n, sz := len(lp.st.inputs), ops.size()
	want := 1 + (n+2)*sz + 8*len(lp.st.hist)
	if len(data) != want || data[0] != byte(n) {
		return fmt.Errorf("logicsim: gate %d state of %d bytes does not fit %d pins (want %d bytes)",
			lp.id, len(data), n, want)
	}
	vals := data[1:]
	var err error
	for i := range lp.st.inputs {
		if lp.st.inputs[i], err = ops.get(vals[i*sz:]); err != nil {
			return fmt.Errorf("logicsim: gate %d pin %d: %w", lp.id, i, err)
		}
	}
	if lp.st.out, err = ops.get(vals[n*sz:]); err != nil {
		return fmt.Errorf("logicsim: gate %d output: %w", lp.id, err)
	}
	if lp.st.ff, err = ops.get(vals[(n+1)*sz:]); err != nil {
		return fmt.Errorf("logicsim: gate %d latch: %w", lp.id, err)
	}
	hist := vals[(n+2)*sz:]
	for i := range lp.st.hist {
		lp.st.hist[i] = binary.LittleEndian.Uint64(hist[8*i:])
	}
	return nil
}

// rebalancer adapts the kernel's load snapshots to core.Rebalance: it turns
// the observed send matrix into a partition.RuntimeGraph, refines the
// current assignment, and hands the result back as the new routing. Buffers
// are reused across rounds; the kernel calls rebalance from a single
// goroutine.
type rebalancer struct {
	imbalance float64
	seed      int64

	g   partition.RuntimeGraph
	cur []int
	cnt int
}

func (r *rebalancer) rebalance(s *timewarp.LoadSnapshot) []int {
	r.cnt++
	// Gate and weigh on the EWMA-smoothed load (Config.LoadSmoothing), not
	// the raw window: one quiet or one frantic window should neither
	// trigger nor mask a migration, and the refined weights should reflect
	// the persistent hotspot, not the latest transient.
	if s.SmoothedImbalance() < r.imbalance {
		return nil
	}
	n := s.NumLPs()
	r.g.N = n
	r.g.VertexWeight = r.g.VertexWeight[:0]
	r.g.EdgeOff = r.g.EdgeOff[:0]
	r.g.EdgeDst = r.g.EdgeDst[:0]
	r.g.EdgeWeight = r.g.EdgeWeight[:0]
	for lp := 0; lp < n; lp++ {
		// ×16 keeps sub-event EWMA resolution in the integer weights.
		r.g.VertexWeight = append(r.g.VertexWeight, int64(s.SmoothedCommitted[lp]*16+0.5))
	}
	r.g.EdgeOff = append(r.g.EdgeOff, s.EdgeOff...)
	for _, d := range s.EdgeDst {
		r.g.EdgeDst = append(r.g.EdgeDst, int32(d))
	}
	for _, c := range s.EdgeCnt {
		r.g.EdgeWeight = append(r.g.EdgeWeight, int64(c))
	}
	r.cur = append(r.cur[:0], s.ClusterOf...)
	next, st, err := core.Rebalance(
		partition.Assignment{Parts: r.cur, K: s.NumClusters},
		&r.g,
		// Vary the seed per round so a rejected local optimum is not
		// re-proposed identically forever.
		core.RebalanceOptions{Seed: r.seed + int64(r.cnt)},
	)
	if err != nil {
		// The inputs are kernel-built (snapshot CSR, current routing), so an
		// error is a programming bug, not a workload condition; declining
		// silently would disguise a fully static run as a dynamic one.
		panic(fmt.Sprintf("logicsim: rebalance failed on a kernel-built snapshot: %v", err))
	}
	if st.Moved == 0 {
		return nil
	}
	return next.Parts
}

// maxPins is the most input pins a gate may have: EncodeState stores the pin
// count in one byte.
const maxPins = 255

// Run simulates circuit c with partition assignment a on a.K simulation
// nodes and returns the committed results plus kernel statistics.
func Run(c *circuit.Circuit, a partition.Assignment, cfg Config) (Result, error) {
	if err := a.Validate(c); err != nil {
		return Result{}, err
	}
	if err := cfg.setDefaults(c); err != nil {
		return Result{}, err
	}
	for _, g := range c.Gates {
		if len(g.Fanin) > maxPins {
			return Result{}, fmt.Errorf("logicsim: gate %d has %d pins, state codec limit %d", g.ID, len(g.Fanin), maxPins)
		}
	}
	if cfg.Vectors {
		return run[circuit.VecValue, vector](c, a, cfg)
	}
	return run[circuit.Value, scalar](c, a, cfg)
}

func run[V any, L lanes[V]](c *circuit.Circuit, a partition.Assignment, cfg Config) (Result, error) {
	sim := &shared{c: c, cfg: cfg}
	inputIdx, outIdx := indexOf(c.Inputs, c.NumGates()), indexOf(c.Outputs, c.NumGates())
	handlers := make([]timewarp.Handler, c.NumGates())
	lps := make([]*gateLP[V, L], c.NumGates())
	for id, g := range c.Gates {
		lps[id] = newGateLP[V, L](sim, g, inputIdx[id], outIdx[id])
		handlers[id] = lps[id]
	}
	var window timewarp.Time
	if cfg.OptimismCycles > 0 {
		window = timewarp.Time(cfg.OptimismCycles * float64(cfg.ClockPeriod))
		if window < 1 {
			window = 1
		}
	}
	twCfg := timewarp.Config{
		NumClusters:      a.K,
		ClusterOf:        a.Parts,
		OptimismWindow:   window,
		GVTPeriodEvents:  cfg.GVTPeriodEvents,
		LazyCancellation: cfg.LazyCancellation,
		Net: timewarp.NetConfig{
			Transport:  cfg.Transport,
			SendBusy:   cfg.NetSendBusy,
			RecvBusy:   cfg.NetRecvBusy,
			Latency:    cfg.NetLatency,
			InboxSize:  cfg.InboxSize,
			FlushBatch: cfg.FlushBatch,
		},
	}
	if cfg.DynamicRebalance && a.K > 1 {
		rb := &rebalancer{
			imbalance: cfg.RebalanceImbalance,
			seed:      cfg.RebalanceSeed,
		}
		twCfg.Dynamic.Rebalance = rb.rebalance
		twCfg.Dynamic.PeriodRounds = cfg.RebalancePeriodRounds
		twCfg.Dynamic.LoadSmoothing = cfg.LoadSmoothing
	}
	kernel, err := timewarp.New(twCfg, handlers)
	if err != nil {
		return Result{}, err
	}
	stats, err := kernel.Run()
	if err != nil {
		return Result{}, err
	}

	var ops L
	res := Result{
		CommittedEvents: stats.EventsCommitted,
		ScenarioEvents:  stats.EventsCommitted * uint64(ops.width()),
		OutputValues:    make([]circuit.Value, len(c.Outputs)),
		FinalValues:     make([]circuit.Value, c.NumGates()),
		Local:           make([]bool, c.NumGates()),
		Stats:           stats,
	}
	// Report only the gates this process hosts at the end of the run: a
	// remote gate's handler here is either an untouched replica or a stale
	// pre-migration copy, and exactly one node reports each gate.
	final := make([]V, c.NumGates())
	hist := make([]uint64, ops.width())
	for id, lp := range lps {
		final[id] = ops.allX()
		if kernel.LocalLP(timewarp.LPID(id)) {
			res.Local[id] = true
			final[id] = lp.st.out
			for s, h := range lp.st.hist {
				hist[s] += h
			}
		}
		res.FinalValues[id] = ops.lane(final[id], 0)
	}
	for i, id := range c.Outputs {
		res.OutputValues[i] = res.FinalValues[id]
	}
	res.OutputHistory = hist[0]
	if vf, ok := any(final).([]circuit.VecValue); ok {
		res.VecFinalValues = vf
		res.VecOutputHistory = hist
		res.VecOutputValues = make([]circuit.VecValue, len(c.Outputs))
		for i, id := range c.Outputs {
			res.VecOutputValues[i] = vf[id]
		}
	}
	return res, nil
}

// indexOf maps each of n gate IDs to its position in ids, or -1.
func indexOf(ids []int, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = -1
	}
	for i, id := range ids {
		idx[id] = i
	}
	return idx
}
