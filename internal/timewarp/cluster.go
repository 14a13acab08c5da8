package timewarp

import (
	"sync"
	"sync/atomic"
	"time"
)

// ClusterStats counts what one cluster (simulation node) did during a run.
type ClusterStats struct {
	// EventsProcessed counts every event executed, including executions
	// later undone by rollback.
	EventsProcessed uint64 `json:"events_processed"`
	// EventsCommitted counts events made permanent by fossil collection.
	EventsCommitted uint64 `json:"events_committed"`
	// EventsRolledBack counts event executions undone by rollbacks.
	EventsRolledBack uint64 `json:"events_rolled_back"`
	// Rollbacks counts rollback episodes.
	Rollbacks uint64 `json:"rollbacks"`
	// RemoteMessages counts positive application messages sent to other
	// clusters (the paper's "Number of Application Messages").
	RemoteMessages uint64 `json:"remote_messages"`
	// LocalMessages counts positive messages delivered inside the cluster.
	LocalMessages uint64 `json:"local_messages"`
	// AntiMessages counts anti-messages sent (to any destination).
	AntiMessages uint64 `json:"anti_messages"`
	// Migrations counts LPs this cluster packed and handed to a new home
	// under dynamic rebalancing.
	Migrations uint64 `json:"migrations"`
	// ForwardedMessages counts events that arrived under a stale routing
	// epoch and were forwarded to the receiver's current home.
	ForwardedMessages uint64 `json:"forwarded_messages"`
	// Waits counts the times the cluster blocked on its mailbox, idle or
	// stalled by the optimism window; WaitTimeouts counts the waits that
	// ended on the idleWait timer instead of a wakeup.
	Waits        uint64 `json:"waits"`
	WaitTimeouts uint64 `json:"wait_timeouts"`
}

func (s *ClusterStats) add(o ClusterStats) {
	s.EventsProcessed += o.EventsProcessed
	s.EventsCommitted += o.EventsCommitted
	s.EventsRolledBack += o.EventsRolledBack
	s.Rollbacks += o.Rollbacks
	s.RemoteMessages += o.RemoteMessages
	s.LocalMessages += o.LocalMessages
	s.AntiMessages += o.AntiMessages
	s.Migrations += o.Migrations
	s.ForwardedMessages += o.ForwardedMessages
	s.Waits += o.Waits
	s.WaitTimeouts += o.WaitTimeouts
}

// schedEntry is a lazily maintained LTSF scheduler entry: the LP claimed to
// have work at time t when the entry was pushed. It names the LP by id, so
// the heap holds no pointers and its sifts pay no write barriers.
type schedEntry struct {
	t  Time
	lp LPID
}

// schedHeap is a min-heap over schedEntry, manipulated with the non-boxing
// heapPush/heapPop helpers.
type schedHeap []schedEntry

func (h *schedHeap) push(e schedEntry) { heapPush((*[]schedEntry)(h), e, schedLess) }

func (h *schedHeap) pop() schedEntry { return heapPop((*[]schedEntry)(h), schedLess) }

// eventPool recycles the two kinds of event slice the kernel allocates apart
// from the LP logs: the copies of rolled-back sends that lazy cancellation
// holds in oldSends, and the modeled wire's delayed batches. Each cluster
// owns one pool and every LP operation runs on its owning cluster's
// goroutine (initialization is single-threaded), so no locking is needed.
type eventPool struct {
	free [][]Event
	// held is the summed capacity of the slices in free; put refuses a
	// slice that would raise it above limit.
	held, limit int
}

// eventPoolLimit sizes a cluster's pool to one GVT period of events, with
// headroom for fan-out: about as many sends as rollbacks can stash, or
// delayed batches can hold, between two fossil collections.
func eventPoolLimit(gvtPeriodEvents int) int {
	return 8 * gvtPeriodEvents
}

// maxPooledEventCap bounds the backing-array size the pool will retain. One
// rollback burst with huge bundles would otherwise fill the whole pool with a
// few arbitrarily large arrays that ordinary bundles never grow into.
const maxPooledEventCap = 1024

// get returns a recycled zero-length slice, or nil (callers append).
//
//kernelvet:pool-get
func (p *eventPool) get() []Event {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.held -= cap(s)
		return s
	}
	return nil
}

// put recycles a slice's backing array. The pool is bounded in total pooled
// capacity and in per-slice capacity so a rollback burst cannot pin memory
// forever.
//
//kernelvet:pool-put
func (p *eventPool) put(s []Event) {
	if cap(s) == 0 || cap(s) > maxPooledEventCap || p.held+cap(s) > p.limit {
		return
	}
	p.held += cap(s)
	p.free = append(p.free, s[:0])
}

// idleWait bounds how long an idle or window-stalled cluster blocks on its
// mailbox. Every wait is woken by what it waits for (see waitMail), so the
// timer is a safety net and the poll interval of the modeled wire's delayed
// heap. Once every P is idle the Go runtime rounds such a short timer up to
// about a millisecond, so a wait that depends on it costs that much.
const idleWait = 50 * time.Microsecond

// cluster is one simulation node: a goroutine owning a set of LPs, a batched
// mailbox for inter-cluster messages (transport.go), and a
// lowest-timestamp-first scheduler.
type cluster struct {
	kernel *Kernel
	id     int
	lps    []*lpRuntime //kernelvet:owner cluster

	// mail is the inbound side of the batched transport (its own internal
	// synchronization); mailEv/mailHdr are the drained buffers handed back
	// at the next take (double buffering).
	mail    mailbox
	mailEv  []Event    //kernelvet:owner cluster
	mailHdr []batchHdr //kernelvet:owner cluster
	// out holds the per-destination outboxes of not-yet-flushed remote
	// events (out[c.id] stays empty; local messages use localQ).
	out []outbox //kernelvet:owner cluster
	// flushBatch caches NetConfig.FlushBatch for the per-event stageRemote
	// path.
	flushBatch int

	// sentCum/recvCum are cumulative per-color transit counters, maintained
	// only under a multi-process transport (kernel.remote): sentCum[p]
	// counts every event this cluster ever flushed under parity p, recvCum
	// every event it released from its mailbox or delayed heap. Unlike the
	// kernel's transit deltas they never decrease (a refused flush takes
	// its increment back on the same goroutine before anyone reads it), so
	// the coordinator can evaluate the wave-1 drain over stale mirrors:
	// once a cluster acked the cut it is red and its white sentCum is
	// final, and a lagging recvCum mirror only undercounts — the probe can
	// conclude "drained" late, never early.
	sentCum [2]paddedCount
	recvCum [2]paddedCount

	// localQ queues intra-cluster deliveries. Local messages are never
	// delivered synchronously from inside LP operations: a rollback that
	// sent an anti-message to a same-cluster LP (or to the LP itself) would
	// otherwise re-enter rollback while queues are mid-mutation. localHead
	// indexes the next undelivered message so draining reuses the backing
	// array instead of re-slicing it away.
	localQ    []Event //kernelvet:owner cluster
	localHead int     //kernelvet:owner cluster
	// delayed holds received batches still "on the wire" under the modeled
	// network latency; they stay in-flight for GVT accounting until
	// delivered.
	delayed delayedHeap  //kernelvet:owner cluster
	sched   schedHeap    //kernelvet:owner cluster
	evPool  eventPool    //kernelvet:owner cluster
	stats   ClusterStats //kernelvet:owner cluster

	eventsSinceGVT int //kernelvet:owner cluster
	// idle is true from the iteration the cluster found nothing to do until
	// it next executes or receives events; entering it requests a GVT round.
	idle bool //kernelvet:owner cluster
	// idleGVT is the GVT this cluster saw at its last timed-out idle wait.
	idleGVT Time //kernelvet:owner cluster

	// color is the GVT round this cluster has joined; its parity stamps
	// every flushed batch for the kernel's transit counts.
	color int64 //kernelvet:owner cluster
	// redMin is the minimum receive time this cluster has flushed since
	// joining the current round — the bound on its batches that may still
	// be in transit when the round's second cut closes.
	redMin Time //kernelvet:owner cluster
	// reportedRound is the last round this cluster sent a wave-2 report
	// for; it makes duplicate report wakeups harmless.
	reportedRound int64 //kernelvet:owner cluster
	// fossilAt is the GVT this cluster last fossil-collected at.
	fossilAt Time //kernelvet:owner cluster
	// idleTimer is the reusable timer behind waitMail; time.After would
	// allocate a fresh timer channel on every idle iteration.
	idleTimer *time.Timer //kernelvet:owner cluster

	// owned[lp] reports whether this cluster currently owns lp. Only this
	// cluster's goroutine reads or writes its own slice; ownership moves
	// via the migration handoff (migrate.go), never by another goroutine
	// touching it.
	owned []bool //kernelvet:owner cluster
	// limbo parks events addressed to LPs that are routed here but whose
	// migration payload has not arrived yet; localMin folds it into GVT
	// reports so the floor covers parked events.
	limbo []Event //kernelvet:owner cluster
	// loadSeen is the last load round this cluster captured counters for.
	loadSeen int64 //kernelvet:owner cluster
	// Migration mailboxes: the coordinator appends orders, source clusters
	// append payloads; migFlag makes the common no-migration case one
	// atomic load. The scratch slices double-buffer the swap in
	// checkMigrate.
	migMu       sync.Mutex
	migFlag     int32
	migOrders   []migOrder   //kernelvet:guarded-by migMu
	migIn       []migPayload //kernelvet:guarded-by migMu
	migScratchO []migOrder   //kernelvet:guarded-by migMu
	migScratchP []migPayload //kernelvet:guarded-by migMu
}

// route delivers an event to its destination LP's current home cluster (per
// the routing table): locally via localQ, or by staging it in the
// destination's outbox for a batched flush (transport.go). positive
// distinguishes application messages from anti-messages for accounting. It
// reports whether the event left the cluster (the sender's load profile
// counts remote sends).
//
// The local branch does no transit accounting at all. An intra-cluster
// message can never be "in flight" across a GVT cut observation: it is
// appended and drained by this same goroutine, and this goroutine is also
// the only one that joins cuts and files wave-2 reports (checkGVT). Any cut
// this cluster observes therefore happens at a program point where the
// event is either not yet created, still in localQ (folded into the report
// by localMin), or already delivered into an LP's queues (covered by the
// LP's pending minimum) — there is no interleaving in which another
// cluster's counter or report would have to account for it.
func (c *cluster) route(ev Event, positive bool) (remote bool) {
	dst := c.kernel.RouteOf(ev.Receiver)
	if dst == c.id {
		if positive {
			c.stats.LocalMessages++
		}
		c.localQ = append(c.localQ, ev)
		return false
	}
	if positive {
		c.stats.RemoteMessages++
	}
	c.stageRemote(dst, ev)
	return true
}

// drainLocal delivers every queued intra-cluster message, including those
// appended while draining (rollbacks can emit further local anti-messages).
// Same-goroutine delivery: no locks, no atomics (see route). Returns the
// number delivered.
func (c *cluster) drainLocal() int {
	n := 0
	for c.localHead < len(c.localQ) {
		ev := c.localQ[c.localHead]
		c.localHead++
		c.deliver(ev)
		n++
	}
	c.localQ = c.localQ[:0]
	c.localHead = 0
	return n
}

// sendAnti emits the anti-message for a previously sent positive event.
func (c *cluster) sendAnti(pos Event) {
	anti := pos
	anti.Anti = true
	c.stats.AntiMessages++
	c.route(anti, false)
}

// deliver hands a received event to its LP and refreshes the scheduler. An
// event for an LP this cluster does not own was routed under a stale epoch:
// it is forwarded to the LP's current home, or parked in limbo when the LP
// is migrating here and its payload has not landed yet.
func (c *cluster) deliver(ev Event) {
	if !c.owned[ev.Receiver] {
		if c.kernel.RouteOf(ev.Receiver) != c.id {
			c.forward(ev)
		} else {
			c.parkLimbo(ev)
		}
		return
	}
	lp := c.kernel.lps[ev.Receiver]
	if ev.Anti {
		lp.annihilate(ev)
	} else {
		lp.enqueue(ev)
	}
	c.schedule(lp)
}

// schedule refreshes lp's scheduler entry if its earliest work moved below
// the tracked entry (lp.schedT). The gate keeps batch delivery from pushing
// one heap entry per event: only the first event of a batch that lowers the
// LP's next work time touches the heap.
func (c *cluster) schedule(lp *lpRuntime) {
	if t := lp.nextTime(); t < lp.schedT {
		c.sched.push(schedEntry{t: t, lp: lp.id})
		lp.schedT = t
	}
}

// checkGVT runs the cluster-side half of the asynchronous GVT protocol:
// join a newly opened round (wave 1) and report once the coordinator opens
// wave 2. Both steps are cheap atomic probes; the main loop calls this every
// iteration and control bits trigger it early on idle clusters.
func (c *cluster) checkGVT() {
	k := c.kernel
	if r := atomic.LoadInt64(&k.round); r > c.color {
		// Wave 1 cut: turn red. Batches flushed from here on carry the new
		// color; redMin starts tracking their minimum receive time. The ack
		// pins this cluster's white sentCum: it is issued after the color
		// flip on this same goroutine, so no later flush can raise the
		// white count the coordinator reads.
		c.color = r
		c.redMin = TimeInfinity
		k.tr.ackCut(c)
	}
	if r := atomic.LoadInt64(&k.reportRound); r == c.color && c.reportedRound < r {
		// Wave 2: every pre-cut batch is accounted for (the white transit
		// count reached zero before the coordinator opened this wave, and
		// any that landed here were delivered before this call on this
		// goroutine), so min(local work, red flushes) is a sound
		// contribution. localMin folds in events still buffered in this
		// cluster's outboxes and local queue — they carry no transit charge,
		// and this report is exactly what covers them.
		c.reportedRound = r
		m := c.localMin()
		if c.redMin < m {
			m = c.redMin
		}
		k.tr.report(c, m)
		// Participating in a round resets the request period, preserving
		// the one-round-per-GVTPeriodEvents cadence across the fleet.
		c.eventsSinceGVT = 0
	}
	if r := atomic.LoadInt64(&k.loadRound); r > c.loadSeen {
		// Load round: copy this cluster's per-LP activity counters into its
		// snapshot buffer (resetting the window) and ack. The coordinator
		// reads the buffer only after every cluster acked. Committing
		// through the GVT that opened the round comes first: an idle
		// cluster sleeps through GVT advances, so its committed counters
		// would otherwise lag the snapshot.
		c.loadSeen = r
		c.maybeFossil()
		c.captureLoad()
		k.tr.ackLoad(c)
	}
}

// maybeFossil commits history whenever the published GVT has advanced past
// the last value this cluster collected at. Fossil collection is local: no
// coordination with other clusters, no round barrier.
func (c *cluster) maybeFossil() {
	if g := c.kernel.GVT(); g > c.fossilAt {
		c.fossilAt = g
		c.fossilCollect(g)
	}
}

// executeOne runs the next bundle of the lowest-timestamp LP. Returns the
// number of events executed (0 when idle or when all work lies beyond the
// optimism window).
func (c *cluster) executeOne() (n int, windowStalled bool) {
	horizon := c.kernel.horizon()
	for len(c.sched) > 0 {
		e := c.sched.pop()
		if !c.owned[e.lp] {
			// The LP migrated away after this entry was pushed; its new
			// owner schedules it now, and touching it (schedT included)
			// here would race.
			continue
		}
		lp := c.kernel.lps[e.lp]
		if e.t == lp.schedT {
			// This was the LP's tracked entry; it is no longer in the heap.
			lp.schedT = TimeInfinity
		}
		t := lp.nextTime()
		if t == TimeInfinity {
			continue
		}
		if t > horizon {
			// Beyond the window: put the entry back and wait for the floor
			// to advance. The heap minimum is beyond the horizon, so every
			// other entry is too.
			c.schedule(lp)
			return 0, true
		}
		if t != e.t {
			c.schedule(lp)
			continue
		}
		nx := lp.executeNext()
		c.schedule(lp)
		if nx > 0 {
			return nx, false
		}
	}
	return 0, false
}

// run is the cluster's main loop. GVT rounds happen asynchronously around
// it: the loop keeps draining and executing events while a round is in
// flight, and the round's cut/report steps are single checkGVT probes. It is
// the entry point of the cluster goroutine domain: everything it reaches
// (scheduling, delivery, rollback, fossil collection) runs on this goroutine
// and may touch cluster- and LP-owned state freely.
//
// A cluster with nothing to execute blocks in waitMail, and every wait ends
// when what it waits for happens: a batch or control bit in its mailbox, a
// raised progress slot for a window-stalled cluster (publishProgress), or,
// for cluster 0, the coordinator's next round step becoming possible
// (Kernel.acked, Kernel.flagGVT). The idleWait timer is only a safety net
// and the poll for the modeled wire's delayed batches.
//
//kernelvet:goroutine cluster
func (c *cluster) run() {
	k := c.kernel
	for atomic.LoadInt32(&k.done) == 0 {
		if c.id == 0 {
			k.coordinate()
		}
		moved := c.drainLocal() + c.drainMail()
		c.maybeFlush()
		c.checkGVT()
		c.checkMigrate()
		n, windowStalled := c.executeOne()
		// Counted: a load-round capture can commit history and queue
		// lazy-cancellation anti-messages here without executing.
		moved += c.drainLocal()
		c.maybeFossil()
		c.eventsSinceGVT += n
		if c.eventsSinceGVT >= k.cfg.GVTPeriodEvents {
			c.eventsSinceGVT = 0
			k.requestGVT()
		}
		// Publish progress: this cluster's next work time (the scheduler
		// top is accurate after executeOne). The optimism throttle reads
		// the floor over these, and senders read individual entries for the
		// urgency flush trigger; publishing before any idle wait keeps both
		// fresh. One atomic load while the time is unchanged, else a swap;
		// a raised slot also wakes the clusters stalled on the window.
		next := TimeInfinity
		if len(c.sched) > 0 {
			next = c.sched[0].t
		}
		k.tr.publish(c, next)
		switch {
		case n > 0 || moved > 0:
			c.idle = false
		case windowStalled:
			// All local work lies beyond the optimism horizon. Flush held
			// batches (they may be what lets the floor advance elsewhere)
			// and sleep until the floor rises instead of spinning a core;
			// stragglers and GVT wakeups still interrupt the wait
			// instantly. No GVT request: the window throttles against the
			// published progress floor, not GVT.
			c.flushAll()
			c.waitStalled(next)
		default:
			if !c.idle {
				// A cluster going idle asks for a round at once: its
				// report may be the last one holding GVT down, and
				// termination (GVT = infinity) needs a round after the
				// last cluster ran out of work.
				c.idle = true
				k.requestGVT()
			}
			// The idleness flush trigger: never block on held batches.
			c.flushAll()
			if c.waitMail() {
				// Safety net for liveness: a state change that can
				// release GVT without making any cluster busy would
				// otherwise leave the run waiting for a round nobody
				// asks for. A cluster whose idle waits time out twice
				// in a row with GVT unchanged asks again; while other
				// clusters keep GVT moving it stays quiet.
				if g := k.GVT(); g == c.idleGVT {
					k.requestGVT()
				} else {
					c.idleGVT = g
				}
			}
		}
	}
	// Terminal GVT is infinity and the network is empty: commit everything
	// that is still uncollected.
	c.fossilCollect(k.GVT())
}

// localMin returns the earliest work this cluster is responsible for: the
// earliest live pending event of its LPs, the earliest rolled-back send that
// may still turn into an anti-message (lazy cancellation), the earliest
// event parked in limbo for an LP whose migration payload is still in
// flight, and the earliest event buffered in the local queue or a
// per-destination outbox. Buffered events carry no transit charge (they are
// private to this goroutine), so the GVT floor must cover them here; delayed
// batches are NOT folded in — they still hold their transit charge, which
// blocks the cut instead.
func (c *cluster) localMin() Time {
	min := TimeInfinity
	for _, lp := range c.lps {
		if t := lp.nextTime(); t < min {
			min = t
		}
		if t := lp.minPendingCancel(); t < min {
			min = t
		}
	}
	for i := range c.limbo {
		if t := c.limbo[i].RecvTime; t < min {
			min = t
		}
	}
	for i := c.localHead; i < len(c.localQ); i++ {
		if t := c.localQ[i].RecvTime; t < min {
			min = t
		}
	}
	for dst := range c.out {
		if ob := &c.out[dst]; len(ob.buf) > 0 && ob.min < min {
			min = ob.min
		}
	}
	return min
}

// fossilCollect commits history below gvt across the cluster's LPs.
func (c *cluster) fossilCollect(gvt Time) {
	for _, lp := range c.lps {
		c.stats.EventsCommitted += lp.fossilCollect(gvt)
	}
}
