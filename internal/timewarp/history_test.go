package timewarp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// listLP is a handler whose encoded state changes length from one bundle to
// the next: it keeps a list of received values, which a value divisible by 7
// clears, and encodes it as varints. Each bundle sends len(vals)%3 events to
// LP 1, so bundles also differ in how much of the out log they take, zero
// included.
//
// trace is test bookkeeping, not simulation state: for the latest execution
// at each bundle time it records the encoded state before the bundle and the
// bundle's input and send counts, the figures the kernel's logs must hold.
type listLP struct {
	vals  []int32
	trace map[Time]bundleTrace
}

type bundleTrace struct {
	pre       []byte
	nIn, nOut int
}

func (h *listLP) Init(ctx *Context) {}

func (h *listLP) Execute(ctx *Context, now Time, events []Event) {
	tr := bundleTrace{pre: h.EncodeState(nil), nIn: len(events)}
	for _, ev := range events {
		if ev.Value%7 == 0 {
			h.vals = h.vals[:0]
		} else {
			h.vals = append(h.vals, ev.Value)
		}
	}
	tr.nOut = len(h.vals) % 3
	for i := 0; i < tr.nOut; i++ {
		ctx.Send(1, now+1, 0, int32(len(h.vals)))
	}
	h.trace[now] = tr
}

func (h *listLP) EncodeState(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(h.vals)))
	for _, v := range h.vals {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

func (h *listLP) DecodeState(data []byte) error {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return fmt.Errorf("listLP: bad length")
	}
	data = data[k:]
	h.vals = h.vals[:0]
	for i := uint64(0); i < n; i++ {
		v, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("listLP: value %d of %d truncated", i, n)
		}
		h.vals = append(h.vals, int32(v))
		data = data[k:]
	}
	if len(data) != 0 {
		return fmt.Errorf("listLP: %d trailing bytes", len(data))
	}
	return nil
}

// TestHistoryLogs drives one LP's history directly, on the test goroutine:
// a seeded mix of arrivals (many of them stragglers, so rollbacks land in
// the middle of the history), executions, anti-messages and fossil
// collections. After a rollback the handler must hold the state from before
// the earliest undone bundle, and at every step each bundle's slice of the
// input, output and state logs must hold exactly what its execution
// consumed, sent and saved, with processed[0] at offset 0 and each log
// ending where its last bundle ends.
func TestHistoryLogs(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			h := &listLP{trace: make(map[Time]bundleTrace)}
			k, err := New(Config{NumClusters: 1, ClusterOf: []int{0, 0}, LazyCancellation: lazy},
				[]Handler{h, &pingLP{}})
			if err != nil {
				t.Fatal(err)
			}
			lp := k.lps[0]
			rng := rand.New(rand.NewSource(1))
			var (
				gvt        Time
				nextID     uint64
				live       []Event // uncommitted, un-annihilated arrivals
				rollbacks  int
				fossilized int
			)
			// undo runs op, which may roll the LP back to time tm, and
			// checks the rollback's effect against the trace.
			undo := func(tm Time, op func()) {
				idx := 0
				for idx < len(lp.processed) && lp.processed[idx].time < tm {
					idx++
				}
				if idx == len(lp.processed) {
					op()
					return
				}
				rollbacks++
				want := h.trace[lp.processed[idx].time].pre
				var stashed []bundleTrace
				var times []Time
				for _, b := range lp.processed[idx:] {
					stashed = append(stashed, h.trace[b.time])
					times = append(times, b.time)
				}
				op()
				if len(lp.processed) != idx {
					t.Fatalf("rollback to %d kept %d bundles, want %d", tm, len(lp.processed), idx)
				}
				if got := h.EncodeState(nil); !bytes.Equal(got, want) {
					t.Fatalf("rollback to %d restored state %x, want %x", tm, got, want)
				}
				if !lazy {
					return
				}
				// An anti-message that leaves the LP no live work at a
				// rolled-back time cancels that time's sends at once.
				next := lp.nextTime()
				for i, tr := range stashed {
					if tr.nOut == 0 || times[i] < next {
						continue
					}
					found := false
					for _, e := range lp.oldSends {
						found = found || (e.time == times[i] && len(e.sent) == tr.nOut)
					}
					if !found {
						t.Fatalf("rollback to %d: no oldSends entry of %d sends at %d", tm, tr.nOut, times[i])
					}
				}
			}
			check := func(step int) {
				if lp.nCancelled != len(lp.cancelled) {
					t.Fatalf("step %d: nCancelled %d, set holds %d", step, lp.nCancelled, len(lp.cancelled))
				}
				var nIn, nOut, nState int
				for i, b := range lp.processed {
					if i == 0 && (b.in != 0 || b.out != 0 || b.state != 0) {
						t.Fatalf("step %d: processed[0] starts at %d/%d/%d, want 0/0/0", step, b.in, b.out, b.state)
					}
					tr := h.trace[b.time]
					if int(b.in) != nIn || int(b.out) != nOut || int(b.state) != nState {
						t.Fatalf("step %d: bundle %d at %d/%d/%d, want %d/%d/%d",
							step, i, b.in, b.out, b.state, nIn, nOut, nState)
					}
					for _, ev := range lp.inLog[nIn : nIn+tr.nIn] {
						if ev.RecvTime != b.time {
							t.Fatalf("step %d: bundle at %d logged an input for %d", step, b.time, ev.RecvTime)
						}
					}
					if got := lp.states[nState : nState+len(tr.pre)]; !bytes.Equal(got, tr.pre) {
						t.Fatalf("step %d: bundle at %d saved %x, want %x", step, b.time, got, tr.pre)
					}
					nIn, nOut, nState = nIn+tr.nIn, nOut+tr.nOut, nState+len(tr.pre)
				}
				if len(lp.inLog) != nIn || len(lp.outLog) != nOut || len(lp.states) != nState {
					t.Fatalf("step %d: logs hold %d/%d/%d, bundles end at %d/%d/%d",
						step, len(lp.inLog), len(lp.outLog), len(lp.states), nIn, nOut, nState)
				}
			}
			for step := 0; step < 4000; step++ {
				switch r := rng.Intn(20); {
				case r < 9: // an arrival, a straggler whenever tm <= lvt
					top := lp.lvt
					if top < gvt {
						top = gvt
					}
					nextID++
					ev := Event{ID: nextID, Sender: 1, Receiver: 0, RecvTime: gvt + rng.Int63n(top-gvt+4), Value: rng.Int31n(300)}
					live = append(live, ev)
					undo(ev.RecvTime, func() { lp.enqueue(ev) })
				case r < 16:
					lp.executeNext()
				case r < 18: // an anti-message for an arrival, processed or not
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					anti := live[i]
					anti.Anti = true
					live = append(live[:i], live[i+1:]...)
					undo(anti.RecvTime, func() { lp.annihilate(anti) })
				default: // GVT advances, never past pending work
					limit := lp.nextTime()
					if lp.lvt+1 < limit {
						limit = lp.lvt + 1
					}
					if limit <= gvt {
						continue
					}
					gvt += rng.Int63n(limit - gvt + 1)
					lp.fossilCollect(gvt)
					fossilized++
					keep := live[:0]
					for _, ev := range live {
						if ev.RecvTime >= gvt {
							keep = append(keep, ev)
						}
					}
					live = keep
				}
				check(step)
			}
			if rollbacks < 100 || fossilized < 100 {
				t.Fatalf("weak schedule: %d rollbacks, %d fossil collections", rollbacks, fossilized)
			}
		})
	}
}
