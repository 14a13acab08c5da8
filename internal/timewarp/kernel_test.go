package timewarp

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// decodeWord reads the state of a test handler whose state is one integer,
// encoded as a little-endian uint64.
func decodeWord(data []byte) (uint64, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("state of %d bytes, want 8", len(data))
	}
	return binary.LittleEndian.Uint64(data), nil
}

// pingLP bounces a counter event back and forth with a peer until the
// counter reaches a limit. State is the number of events seen, plus a tag
// the wire-migration tests set to tell the copies of an LP apart.
type pingLP struct {
	peer  LPID
	limit int32
	seen  int32
	delay Time
	start bool
	tag   [4]byte
}

func (p *pingLP) Init(ctx *Context) {
	if p.start {
		ctx.Send(ctx.Self(), 1, 0, 0)
	}
}

func (p *pingLP) Execute(ctx *Context, now Time, events []Event) {
	for _, ev := range events {
		p.seen++
		if ev.Value < p.limit {
			ctx.Send(p.peer, now+p.delay, 0, ev.Value+1)
		}
	}
}

func (p *pingLP) EncodeState(buf []byte) []byte {
	return binary.LittleEndian.AppendUint32(append(buf, p.tag[:]...), uint32(p.seen))
}

func (p *pingLP) DecodeState(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("pingLP: state of %d bytes, want 8", len(data))
	}
	copy(p.tag[:], data)
	p.seen = int32(binary.LittleEndian.Uint32(data[4:]))
	return nil
}

func TestPingPongTwoClusters(t *testing.T) {
	a := &pingLP{peer: 1, limit: 200, delay: 3, start: true}
	b := &pingLP{peer: 0, limit: 200, delay: 3}
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}}, []Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 201 events total: values 0..200 delivered alternately.
	if got := stats.EventsCommitted; got != 201 {
		t.Errorf("committed = %d, want 201", got)
	}
	if a.seen+b.seen != 201 {
		t.Errorf("handler state: %d + %d != 201", a.seen, b.seen)
	}
	if stats.FinalGVT != TimeInfinity {
		t.Errorf("final GVT = %d, want infinity", stats.FinalGVT)
	}
	if stats.RemoteMessages == 0 {
		t.Error("no remote messages counted across 2 clusters")
	}
}

func TestSingleClusterNoRollbacks(t *testing.T) {
	a := &pingLP{peer: 1, limit: 100, delay: 2, start: true}
	b := &pingLP{peer: 0, limit: 100, delay: 2}
	k, err := New(Config{NumClusters: 1, ClusterOf: []int{0, 0}}, []Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rollbacks != 0 {
		t.Errorf("sequential cluster rolled back %d times", stats.Rollbacks)
	}
	if stats.RemoteMessages != 0 {
		t.Errorf("remote messages on one cluster: %d", stats.RemoteMessages)
	}
	if stats.LocalMessages == 0 {
		t.Error("no local messages counted")
	}
}

// fanLP broadcasts to many receivers; used to exercise inbox backpressure.
type fanLP struct {
	targets []LPID
	rounds  int32
	seen    int32
}

func (f *fanLP) Init(ctx *Context) {
	if len(f.targets) > 0 {
		ctx.Send(ctx.Self(), 1, 0, 0)
	}
}

func (f *fanLP) Execute(ctx *Context, now Time, events []Event) {
	for _, ev := range events {
		f.seen++
		if ev.Kind == 0 && ev.Value < f.rounds { // driver tick
			for _, to := range f.targets {
				ctx.Send(to, now+1, 1, ev.Value)
			}
			ctx.Send(ctx.Self(), now+2, 0, ev.Value+1)
		}
	}
}

func (f *fanLP) EncodeState(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(f.seen))
}

func (f *fanLP) DecodeState(data []byte) error {
	v, err := decodeWord(data)
	f.seen = int32(v)
	return err
}

func TestFanOutAcrossClusters(t *testing.T) {
	const nLeaf = 40
	const rounds = 30
	handlers := make([]Handler, nLeaf+1)
	clusterOf := make([]int, nLeaf+1)
	targets := make([]LPID, nLeaf)
	for i := 0; i < nLeaf; i++ {
		targets[i] = LPID(i + 1)
	}
	handlers[0] = &fanLP{targets: targets, rounds: rounds}
	clusterOf[0] = 0
	for i := 1; i <= nLeaf; i++ {
		handlers[i] = &fanLP{rounds: 0}
		clusterOf[i] = i % 4
	}
	k, err := New(Config{NumClusters: 4, ClusterOf: clusterOf, Net: NetConfig{InboxSize: 8}}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(rounds + 1 + nLeaf*rounds) // driver ticks + leaf deliveries
	if stats.EventsCommitted != want {
		t.Errorf("committed = %d, want %d", stats.EventsCommitted, want)
	}
}

// stragglerLP forces rollbacks: a slow sender emits events with small
// timestamps after a fast self-driving receiver has raced ahead.
type stragglerVictim struct {
	sum   int64
	limit Time
}

func (v *stragglerVictim) Init(ctx *Context) {
	ctx.Send(ctx.Self(), 1, 0, 0)
}

func (v *stragglerVictim) Execute(ctx *Context, now Time, events []Event) {
	for _, ev := range events {
		v.sum += int64(ev.Value) * now
		if ev.Kind == 0 && now < v.limit {
			ctx.Send(ctx.Self(), now+1, 0, 1)
		}
	}
}

func (v *stragglerVictim) EncodeState(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v.sum))
}

func (v *stragglerVictim) DecodeState(data []byte) error {
	w, err := decodeWord(data)
	v.sum = int64(w)
	return err
}

type stragglerSender struct {
	victim LPID
	n      Time
}

func (s *stragglerSender) Init(ctx *Context) {
	ctx.Send(ctx.Self(), 10, 0, 0)
}

func (s *stragglerSender) Execute(ctx *Context, now Time, events []Event) {
	for _, ev := range events {
		if ev.Kind != 0 {
			continue
		}
		// Send into the victim's near past relative to its racing LVT.
		ctx.Send(s.victim, now+1, 1, 100)
		if now+10 <= s.n {
			ctx.Send(ctx.Self(), now+10, 0, 0)
		}
	}
}

// stragglerSender's state is its immutable configuration: it encodes to
// nothing.
func (s *stragglerSender) EncodeState(buf []byte) []byte { return buf }

func (s *stragglerSender) DecodeState(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("stragglerSender: state of %d bytes, want 0", len(data))
	}
	return nil
}

func TestRollbacksProduceDeterministicState(t *testing.T) {
	run := func() (int64, RunStats) {
		v := &stragglerVictim{limit: 400}
		s := &stragglerSender{victim: 0, n: 390}
		k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}, GVTPeriodEvents: 64}, []Handler{v, s})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v.sum, stats
	}
	sum1, stats1 := run()
	sum2, _ := run()
	if sum1 != sum2 {
		t.Errorf("final state differs across runs: %d vs %d", sum1, sum2)
	}
	if stats1.EventsProcessed < stats1.EventsCommitted {
		t.Errorf("processed %d < committed %d", stats1.EventsProcessed, stats1.EventsCommitted)
	}
	if stats1.EventsProcessed-stats1.EventsRolledBack != stats1.EventsCommitted {
		t.Errorf("processed-rolledback=%d != committed=%d",
			stats1.EventsProcessed-stats1.EventsRolledBack, stats1.EventsCommitted)
	}
}

func TestLazyCancellationKernel(t *testing.T) {
	v := &stragglerVictim{limit: 300}
	s := &stragglerSender{victim: 0, n: 290}
	k, err := New(Config{
		NumClusters: 2, ClusterOf: []int{0, 1},
		GVTPeriodEvents: 64, LazyCancellation: true,
	}, []Handler{v, s})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsProcessed-stats.EventsRolledBack != stats.EventsCommitted {
		t.Errorf("lazy: processed-rolledback=%d != committed=%d",
			stats.EventsProcessed-stats.EventsRolledBack, stats.EventsCommitted)
	}
}

func TestConfigErrors(t *testing.T) {
	h := []Handler{&pingLP{}, &pingLP{}}
	cases := []Config{
		{NumClusters: 0, ClusterOf: []int{0, 0}},
		{NumClusters: 2, ClusterOf: []int{0}},
		{NumClusters: 2, ClusterOf: []int{0, 5}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, h); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{NumClusters: 1, ClusterOf: nil}, nil); err == nil {
		t.Error("no LPs accepted")
	}
	if _, err := New(Config{NumClusters: 1, ClusterOf: []int{0, 0}}, []Handler{&pingLP{}, nil}); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestKernelRunsOnce(t *testing.T) {
	a := &pingLP{peer: 0, limit: 1, delay: 1, start: true}
	k, err := New(Config{NumClusters: 1, ClusterOf: []int{0}}, []Handler{a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

func TestEventHeapOrdering(t *testing.T) {
	h := &eventHeap{}
	evs := []Event{
		{ID: 3, RecvTime: 10, Sender: 2},
		{ID: 1, RecvTime: 5, Sender: 9},
		{ID: 2, RecvTime: 10, Sender: 1},
		{ID: 4, RecvTime: 5, Sender: 9},
	}
	for _, ev := range evs {
		h.push(ev)
	}
	got := make([]uint64, 0, 4)
	for len(*h) > 0 {
		got = append(got, h.pop().ID)
	}
	want := []uint64{1, 4, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heap order %v, want %v", got, want)
		}
	}
}

// TestRollbackToTimeZeroBeforeCommit: time 0 is a valid bundle time (the
// stimulus starts there), so an LP that has committed nothing must accept a
// straggler at 0 — under a multi-process transport init events from peers
// arrive after the clusters started — and a wire migration must be able to
// roll such an LP back to 0 before the first GVT advance.
func TestRollbackToTimeZeroBeforeCommit(t *testing.T) {
	a := &pingLP{}
	k, err := New(Config{NumClusters: 1, ClusterOf: []int{0}}, []Handler{a})
	if err != nil {
		t.Fatal(err)
	}
	c := k.clusters[0]
	c.deliver(Event{ID: k.nextEventID(), Receiver: 0, RecvTime: 0})
	if n, _ := c.executeOne(); n != 1 {
		t.Fatalf("executed %d events at time 0, want 1", n)
	}
	c.deliver(Event{ID: k.nextEventID(), Sender: 1, Receiver: 0, RecvTime: 0})
	if got := c.stats.Rollbacks; got != 1 {
		t.Fatalf("rollbacks = %d, want 1", got)
	}
	if n, _ := c.executeOne(); n != 2 {
		t.Fatalf("re-executed %d events at time 0, want 2", n)
	}
	if a.seen != 2 {
		t.Fatalf("handler saw %d events after the rollback, want 2", a.seen)
	}
}
