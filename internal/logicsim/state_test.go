package logicsim

import (
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/seqsim"
)

// TestStateCodec holds the state codec of both gate-LP instantiations to
// an exact round trip, and to rejecting any payload EncodeState could not
// have produced for the decoding gate.
func TestStateCodec(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		testStateCodec[circuit.Value, scalar](t, circuit.One, circuit.Zero, circuit.Z+1)
	})
	t.Run("vector", func(t *testing.T) {
		testStateCodec[circuit.VecValue, vector](t,
			seqsim.StimulusVec(1, 0, 0), seqsim.StimulusVec(2, 0, 0),
			circuit.VecValue{Val: 1, Unknown: 1})
	})
}

// testStateCodec runs the codec table on one instantiation: a and b are two
// distinct legal values, bad is a value DecodeState must reject.
func testStateCodec[V any, L lanes[V]](t *testing.T, a, b, bad V) {
	var ops L
	sz := ops.size()
	// An interior 3-input gate and a primary-output gate, which alone
	// carries the per-lane history.
	gates := []struct {
		name   string
		gate   circuit.Gate
		outIdx int
	}{
		{"interior", circuit.Gate{ID: 5, Type: circuit.Nand, Fanin: []int{1, 2, 3}}, -1},
		{"output", circuit.Gate{ID: 6, Type: circuit.Output, Fanin: []int{5}}, 0},
	}
	// setBad overwrites value pos, counted over [pins][out][ff], with bad.
	setBad := func(d []byte, pos int) []byte {
		copy(d[1+pos*sz:], ops.put(nil, bad))
		return d
	}
	cases := []struct {
		name    string
		corrupt func(d []byte, npins int) []byte // nil: decode the payload as encoded
	}{
		{"round trip", nil},
		{"empty", func(d []byte, _ int) []byte { return d[:0] }},
		{"truncated", func(d []byte, _ int) []byte { return d[:len(d)-1] }},
		{"trailing bytes", func(d []byte, _ int) []byte { return append(d, 0) }},
		{"wrong pin count", func(d []byte, _ int) []byte { d[0]++; return d }},
		{"bad pin value", func(d []byte, _ int) []byte { return setBad(d, 0) }},
		{"bad output value", func(d []byte, n int) []byte { return setBad(d, n) }},
		{"bad latch value", func(d []byte, n int) []byte { return setBad(d, n+1) }},
	}
	sim := &shared{}
	for _, g := range gates {
		for _, tc := range cases {
			t.Run(g.name+"/"+tc.name, func(t *testing.T) {
				src := newGateLP[V, L](sim, &g.gate, -1, g.outIdx)
				for i := range src.st.inputs {
					src.st.inputs[i] = a
				}
				src.st.inputs[0] = b
				src.st.out, src.st.ff = b, a
				for i := range src.st.hist {
					src.st.hist[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
				}
				data := src.EncodeState(nil)
				if want := 1 + (len(g.gate.Fanin)+2)*sz + 8*len(src.st.hist); len(data) != want {
					t.Fatalf("encoded %d bytes, want %d", len(data), want)
				}
				dst := newGateLP[V, L](sim, &g.gate, -1, g.outIdx)
				if tc.corrupt == nil {
					if err := dst.DecodeState(data); err != nil {
						t.Fatalf("DecodeState: %v", err)
					}
					if !reflect.DeepEqual(dst.st, src.st) {
						t.Fatalf("round trip: got %+v, want %+v", dst.st, src.st)
					}
					return
				}
				if err := dst.DecodeState(tc.corrupt(data, len(g.gate.Fanin))); err == nil {
					t.Fatalf("DecodeState accepted a corrupt payload")
				}
			})
		}
	}
	// A payload only decodes into a gate of the same shape.
	data := newGateLP[V, L](sim, &gates[0].gate, -1, gates[0].outIdx).EncodeState(nil)
	if err := newGateLP[V, L](sim, &gates[1].gate, -1, gates[1].outIdx).DecodeState(data); err == nil {
		t.Fatalf("an interior gate's payload decoded into a primary output")
	}
}
