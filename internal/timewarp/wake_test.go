package timewarp

import (
	"sync/atomic"
	"testing"
	"time"
)

// rung reports whether c's mailbox notify channel holds a wakeup token, and
// consumes it.
func rung(c *cluster) bool {
	select {
	case <-c.mail.notify:
		return true
	default:
		return false
	}
}

func newWakeKernel(t *testing.T, n int, window Time) *Kernel {
	t.Helper()
	hs := make([]Handler, n)
	of := make([]int, n)
	for i := range hs {
		hs[i] = &pingLP{}
		of[i] = i
	}
	k, err := New(Config{NumClusters: n, ClusterOf: of, OptimismWindow: window}, hs)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestWakeStalledOnRaise: a publish that raises a cluster's progress slot
// rings every window-stalled cluster and no other; a publish that lowers or
// repeats a slot rings nobody.
func TestWakeStalledOnRaise(t *testing.T) {
	k := newWakeKernel(t, 3, 10)
	c0, c1, c2 := k.clusters[0], k.clusters[1], k.clusters[2]
	k.publishProgress(0, 20) // from the TimeInfinity seed: a drop
	atomic.StoreInt64(&k.stalled[1].n, 1)

	k.publishProgress(0, 30)
	if !rung(c1) {
		t.Fatal("raised slot did not wake the stalled cluster")
	}
	if rung(c0) || rung(c2) {
		t.Fatal("raised slot woke a cluster that is not stalled")
	}
	k.publishProgress(0, 30)
	k.publishProgress(0, 25)
	if rung(c1) {
		t.Fatal("a repeated or lowered slot woke the stalled cluster")
	}
	atomic.StoreInt64(&k.stalled[1].n, 0)
	k.publishProgress(0, 40)
	if rung(c1) {
		t.Fatal("raised slot woke a cluster that is no longer stalled")
	}
}

// TestWakeNoSelfStall: a cluster whose own stale slot holds the progress
// floor must not sleep on it. Once it publishes its real next time the
// floor moves, and the stall re-check lets it run without waiting. A
// cluster whose work lies beyond a peer's floor does wait.
func TestWakeNoSelfStall(t *testing.T) {
	k := newWakeKernel(t, 2, 10)
	c0, c1 := k.clusters[0], k.clusters[1]
	c0.deliver(Event{ID: k.nextEventID(), Receiver: 0, RecvTime: 50})
	k.publishProgress(0, 0) // c0's slot from an earlier iteration
	k.publishProgress(1, 100)

	if n, stalled := c0.executeOne(); n != 0 || !stalled {
		t.Fatalf("executeOne against the stale floor = (%d, %v), want (0, true)", n, stalled)
	}
	next := c0.sched[0].t
	k.tr.publish(c0, next)
	c0.waitStalled(next)
	if c0.stats.Waits != 0 {
		t.Fatalf("cluster waited %d times on its own stale slot", c0.stats.Waits)
	}
	if atomic.LoadInt64(&k.stalled[0].n) != 0 {
		t.Fatal("stalled flag left set")
	}
	if n, _ := c0.executeOne(); n != 1 {
		t.Fatalf("executeOne after publishing = %d events, want 1", n)
	}

	// c1's work at 100 lies beyond c0's floor 50 plus the window, so it
	// sleeps. A token already in its mailbox ends the wait at once.
	c1.deliver(Event{ID: k.nextEventID(), Receiver: 1, RecvTime: 100})
	k.publishProgress(0, 50)
	if n, stalled := c1.executeOne(); n != 0 || !stalled {
		t.Fatalf("c1 executeOne = (%d, %v), want (0, true)", n, stalled)
	}
	k.tr.publish(c1, c1.sched[0].t)
	c1.mail.wake()
	c1.waitStalled(c1.sched[0].t)
	if c1.stats.Waits != 1 || c1.stats.WaitTimeouts != 0 {
		t.Fatalf("c1 waits/timeouts = %d/%d, want 1/0", c1.stats.Waits, c1.stats.WaitTimeouts)
	}
	if atomic.LoadInt64(&k.stalled[1].n) != 0 {
		t.Fatal("stalled flag left set after the wait")
	}
}

// TestWakeCoordinatorOnLastAck: the in-memory transport rings cluster 0
// (the coordinator's host) on the last cut ack, the last report, the last
// load ack and a round request that raised the flag — and on nothing else.
func TestWakeCoordinatorOnLastAck(t *testing.T) {
	k := newWakeKernel(t, 3, 0)
	tr := k.tr
	c := k.clusters
	step := func(name string, acks []func()) {
		t.Helper()
		for i, ack := range acks {
			ack()
			last := i == len(acks)-1
			if got := rung(c[0]); got != last {
				t.Fatalf("%s %d of %d: coordinator rung = %v, want %v", name, i+1, len(acks), got, last)
			}
		}
		if rung(c[1]) || rung(c[2]) {
			t.Fatalf("%s rang a cluster other than the coordinator's", name)
		}
	}
	step("cut ack", []func(){
		func() { tr.ackCut(c[1]) }, func() { tr.ackCut(c[0]) }, func() { tr.ackCut(c[2]) },
	})
	step("report", []func(){
		func() { tr.report(c[2], 7) }, func() { tr.report(c[1], 9) }, func() { tr.report(c[0], 8) },
	})
	step("load ack", []func(){
		func() { tr.ackLoad(c[0]) }, func() { tr.ackLoad(c[1]) }, func() { tr.ackLoad(c[2]) },
	})
	step("round request", []func(){tr.requestGVT})
	tr.requestGVT()
	if rung(c[0]) {
		t.Fatal("a request while one is pending rang the coordinator")
	}
}

// TestWaitCounters: both wait counters move, and RunStats sums them over
// the clusters. A ping on a modeled wire makes a timeout certain: the batch
// parks in the receiver's delayed heap, and only the idleWait poll delivers
// it.
func TestWaitCounters(t *testing.T) {
	a := &pingLP{peer: 1, limit: 4, delay: 1, start: true}
	b := &pingLP{peer: 0, limit: 4, delay: 1}
	k, err := New(Config{
		NumClusters: 2,
		ClusterOf:   []int{0, 1},
		Net:         NetConfig{Latency: time.Millisecond},
	}, []Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Waits == 0 || stats.WaitTimeouts == 0 {
		t.Fatalf("waits/timeouts = %d/%d, want both > 0", stats.Waits, stats.WaitTimeouts)
	}
	if stats.WaitTimeouts > stats.Waits {
		t.Fatalf("more timeouts (%d) than waits (%d)", stats.WaitTimeouts, stats.Waits)
	}
	var waits, timeouts uint64
	for _, s := range stats.PerCluster {
		waits += s.Waits
		timeouts += s.WaitTimeouts
	}
	if waits != stats.Waits || timeouts != stats.WaitTimeouts {
		t.Fatalf("per-cluster sums %d/%d != totals %d/%d", waits, timeouts, stats.Waits, stats.WaitTimeouts)
	}
}
