package timewarp

import "sync/atomic"

// Transport is the kernel's communication seam: everything that crosses a
// cluster boundary — event batches, control bits, progress publication, GVT
// wave traffic, and migration — goes through one of these methods, and
// nothing else does. Two implementations exist:
//
//   - memTransport (the default): every cluster is a goroutine of this
//     process and the methods are the direct mailbox pushes and shared
//     atomics the kernel has always used. Zero behavior or cost change
//     against the pre-interface kernel.
//   - TCPTransport: the clusters are partitioned over N OS processes
//     ("nodes") connected by a TCP mesh; methods targeting a remote cluster
//     encode frames (wire.go) instead of touching shared memory, and the
//     kernel's round/GVT atomics are replicated onto every node by the
//     receive goroutines.
//
// The interface is deliberately unexported-method-only: a transport is
// trusted kernel code (it manipulates GVT accounting), so implementations
// live in this package and external callers only select one via
// NetConfig.Transport.
//
// Ownership note for every implementation: push/postCtrl/publish and the
// protocol acks are called from cluster goroutines; broadcastCtrl, noteGVT,
// whiteDrained and sendOrder only from the coordinator (cluster 0's
// goroutine); bind/start/initQuiet/finishRun only from Run's goroutine.
//
// Failure semantics: a transport must never hang the kernel on a dead peer.
// start fails (rather than blocks) when the fabric cannot be completed
// within its window; a mid-run fatal — peer death, corrupt frame, received
// abort — sets the kernel's done flag so every cluster loop exits, and
// finishRun returns the first fatal error, wrapping ErrPeerDown /
// ErrProtoMismatch / ErrConfigMismatch and naming the peer at fault. See
// TCPTransport for the concrete handshake/heartbeat/abort protocol.
type Transport interface {
	// bind attaches the transport to its kernel. New calls it exactly once,
	// before any other method.
	bind(k *Kernel) error
	// start opens the fabric (connections, receive goroutines). Run calls
	// it before handler initialization so init-time sends can flow.
	start() error
	// nodes returns the number of cooperating OS processes.
	nodes() int
	// localCluster reports whether cluster id runs in this process.
	localCluster(id int) bool

	// push delivers one flushed batch to dst's mailbox, or enqueues it
	// toward dst's node. False means backpressure: the batch stays in the
	// sender's outbox and is retried (flushDst's contract).
	push(dst int, events []Event, hdr batchHdr) bool
	// postCtrl merges control bits into dst's mailbox bitmask; immune to
	// data backpressure.
	postCtrl(dst int, bits uint8)
	// publish records cluster c's next work time for the optimism window
	// and the urgency flush trigger (waking window-stalled clusters when it
	// rises, see Kernel.publishProgress), and (multi-process) mirrors it —
	// along with c's cumulative transit counters — to the other nodes.
	publish(c *cluster, t Time)

	// requestGVT asks the coordinator for a round, waking it when the
	// request is new (Kernel.flagGVT).
	requestGVT()
	// ackCut acknowledges that c joined the current cut (wave 1).
	ackCut(c *cluster)
	// report files c's wave-2 GVT contribution m.
	report(c *cluster, m Time)
	// ackLoad acknowledges that c captured its load-round counters.
	// Each of the three acks counts through Kernel.acked on the
	// coordinator's node, so the last one wakes the coordinator.
	ackLoad(c *cluster)
	// broadcastCtrl posts one control bit to every other cluster's mailbox
	// as a wakeup (coordinator only).
	broadcastCtrl(bits uint8)
	// noteGVT runs after the coordinator stored a new GVT (and, when done,
	// set the done flag): it wakes idle clusters so exit is prompt and
	// (multi-process) mirrors the round state to the other nodes.
	noteGVT(done bool)
	// whiteDrained reports whether every batch flushed under the previous
	// round's color has been received (the wave-1 drain condition).
	whiteDrained(white int64) bool

	// sendOrder hands a migration order to cluster dst (coordinator only).
	sendOrder(dst int, o migOrder)
	// sendPayload hands a packed LP to cluster dst. The payload either
	// carries the live *lpRuntime (same-process handoff) or its encoded
	// state (p.wire, multi-process).
	sendPayload(dst int, p migPayload)
	// announceRoute mirrors a routing-table update to the other nodes; the
	// local table was already rewritten by the caller.
	announceRoute(lp LPID, to int)

	// initQuiet reports whether initialization traffic has settled: all
	// init-time sends have left this process's buffers (the in-memory
	// transport can additionally see that they were delivered).
	initQuiet() bool
	// finishRun runs after every local cluster exited: a multi-process
	// transport exchanges FIN markers so all in-flight frames (late
	// migration payloads included) are applied before Run commits final
	// state. It returns the first fatal transport error, if any.
	finishRun() error
}

// memTransport is the in-memory fabric: one process, every cluster a
// goroutine, mailboxes and shared atomics exactly as before the Transport
// seam was introduced.
type memTransport struct {
	k *Kernel
}

func (t *memTransport) bind(k *Kernel) error { t.k = k; return nil }
func (t *memTransport) start() error         { return nil }
func (t *memTransport) nodes() int           { return 1 }
func (t *memTransport) localCluster(int) bool {
	return true
}

func (t *memTransport) push(dst int, events []Event, hdr batchHdr) bool {
	return t.k.clusters[dst].mail.push(events, hdr, t.k.cfg.Net.InboxSize)
}

func (t *memTransport) postCtrl(dst int, bits uint8) {
	t.k.clusters[dst].mail.postCtrl(bits)
}

func (t *memTransport) publish(c *cluster, next Time) {
	t.k.publishProgress(c.id, next)
}

func (t *memTransport) requestGVT() {
	t.k.flagGVT()
}

func (t *memTransport) ackCut(c *cluster) {
	t.k.acked(atomic.AddInt32(&t.k.cutAcks, 1))
}

func (t *memTransport) report(c *cluster, m Time) {
	atomic.StoreInt64(&t.k.reports[c.id].t, m)
	t.k.acked(atomic.AddInt32(&t.k.reportAcks, 1))
}

func (t *memTransport) ackLoad(c *cluster) {
	t.k.acked(atomic.AddInt32(&t.k.loadAcks, 1))
}

// broadcastCtrl posts one control bit to every other cluster's mailbox as a
// wakeup. Control bits merge into a bitmask and ignore mailbox capacity, so
// a broadcast always lands in one pass — no retry bookkeeping. The receiving
// side is idempotent: control bits carry no data, they only make an idle
// cluster look at the round atomics promptly.
func (t *memTransport) broadcastCtrl(bits uint8) {
	for i := 1; i < len(t.k.clusters); i++ {
		t.k.clusters[i].mail.postCtrl(bits)
	}
}

func (t *memTransport) noteGVT(done bool) {
	if !done {
		return
	}
	// Wake every cluster out of its idle wait so exit is prompt.
	for i := 1; i < len(t.k.clusters); i++ {
		t.k.clusters[i].mail.wake()
	}
}

// whiteDrained: all clusters are red, so the white in-transit count can only
// shrink. Zero means every pre-cut batch has been delivered.
func (t *memTransport) whiteDrained(white int64) bool {
	return atomic.LoadInt64(&t.k.transit[white].n) == 0
}

func (t *memTransport) sendOrder(dst int, o migOrder) {
	t.k.clusters[dst].enqueueOrder(o)
}

func (t *memTransport) sendPayload(dst int, p migPayload) {
	target := t.k.clusters[dst]
	target.migMu.Lock()
	// The queued payload now owns the charge; migrateIn releases it.
	//kernelvet:carrier transit
	target.migIn = append(target.migIn, p)
	atomic.StoreInt32(&target.migFlag, 1)
	target.migMu.Unlock()
	// Wake the destination in case it is idle-blocked on its mailbox;
	// control bits ignore capacity, so the nudge always lands.
	target.mail.postCtrl(ctrlWake)
}

func (t *memTransport) announceRoute(lp LPID, to int) {}

// initQuiet: initialization is quiescent when nothing is in transit — every
// flushed init batch has been drained into an LP queue.
func (t *memTransport) initQuiet() bool {
	return t.k.inTransit() == 0
}

func (t *memTransport) finishRun() error { return nil }
