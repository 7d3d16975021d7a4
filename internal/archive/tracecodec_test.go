package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"arest/internal/mpls"
	"arest/internal/probe"
	"arest/internal/testrace"
)

// edgeCase is one trace shape the v2 and v3 codecs must both carry
// losslessly. want is the decoded form when it differs from in: empty
// Stack and RevealErrs decode as nil, as v2's JSON omitempty does.
type edgeCase struct {
	name     string
	in, want *probe.Trace
}

func edgeCases() []edgeCase {
	return []edgeCase{
		{name: "nil hops", in: &probe.Trace{VP: addr("172.16.1.1"), Dst: addr("100.1.0.9"), Halt: probe.HaltMaxTTL}},
		{name: "empty hops", in: &probe.Trace{VP: addr("172.16.1.1"), Dst: addr("100.1.0.9"), Hops: []probe.Hop{}}},
		{
			name: "empty stack and reveal errs",
			in: &probe.Trace{VP: addr("172.16.1.1"), Dst: addr("100.1.0.9"), RevealErrs: []string{},
				Hops: []probe.Hop{{TTL: 1, Addr: addr("10.1.0.1"), RTT: 0.5, Stack: mpls.Stack{}}}},
			want: &probe.Trace{VP: addr("172.16.1.1"), Dst: addr("100.1.0.9"),
				Hops: []probe.Hop{{TTL: 1, Addr: addr("10.1.0.1"), RTT: 0.5}}},
		},
		{
			name: "ipv6 zoned and mapped addresses",
			in: &probe.Trace{VP: addr("2001:db8::1"), Dst: addr("fe80::1%eth0"), FlowID: 7,
				Hops: []probe.Hop{
					{TTL: 1, Addr: addr("fe80::2%en0"), RTT: 0.25, ICMPType: 3},
					{TTL: 2, Addr: addr("::ffff:10.0.0.1"), RTT: 0.75, ICMPType: 3},
					{TTL: 3, Addr: addr("2001:db8::ff"), RTT: 1, ICMPType: 1, ICMPCode: 4},
				}},
		},
		{
			name: "zero addresses",
			in: &probe.Trace{Hops: []probe.Hop{{TTL: 1}, {TTL: 2, Addr: addr("10.1.0.2")}, {TTL: 3}},
				Halt: probe.HaltGaps},
		},
		{
			name: "non-canonical S and TC bits",
			in: &probe.Trace{VP: addr("172.16.1.1"), Dst: addr("100.1.0.9"), FlowID: math.MaxUint16,
				Hops: []probe.Hop{{TTL: 4, Addr: addr("10.1.0.4"), RTT: 3.5, ICMPType: 11, ReplyTTL: 250, QTTL: 3,
					Stack: mpls.Stack{
						{Label: 16005, TC: 7, S: true, TTL: 255}, // S set above the bottom
						{Label: mpls.LabelImplicitNull, TC: 5},   // bottom without S
						{Label: mpls.MaxLabel, TC: 1, S: true},
					}}}},
		},
		{
			name: "halt error with text",
			in: &probe.Trace{VP: addr("172.16.1.1"), Dst: addr("100.1.0.9"), Halt: probe.HaltError,
				Err:        "probe: injected fault",
				RevealErrs: []string{"dpr 10.1.0.3: aux trace: injected fault", "dpr 10.1.0.5: timeout"},
				Hops:       []probe.Hop{{TTL: 1, Addr: addr("10.1.0.1"), RTT: 0.5, ICMPType: 11, ReplyTTL: 253}}},
		},
		{
			name: "revealed and decode-error hops",
			in: &probe.Trace{VP: addr("172.16.1.1"), Dst: addr("100.1.0.9"),
				Hops: []probe.Hop{
					{TTL: 1, Addr: addr("10.1.0.1"), RTT: 1e-300, Revealed: true},
					{TTL: 2, Addr: addr("10.1.0.2"), RTT: -2.5, DecodeError: true, ReplyTTL: 255},
					{TTL: 3, Addr: addr("10.1.0.3"), RTT: 1.5, Revealed: true, DecodeError: true,
						Stack: mpls.Stack{{Label: 24001, S: true, TTL: 1}}},
				}},
		},
	}
}

// edgeData wraps one trace in the fixture campaign under format.
func edgeData(format string, tr *probe.Trace) *Data {
	d := fixtureData()
	d.Meta.Format = format
	d.PerVP[1] = []*probe.Trace{tr}
	return d
}

// fixtureDataV3 is the v2 fixture re-declared as format v3, with the
// canonical edge-case traces on its second VP so the golden file pins the
// byte layout of every v3 payload field.
func fixtureDataV3() *Data {
	d := fixtureDataV2()
	d.Meta.Format = FormatV3
	d.PerVP[1] = nil
	for _, c := range edgeCases() {
		if c.want == nil {
			d.PerVP[1] = append(d.PerVP[1], c.in)
		}
	}
	return d
}

// TestTraceEdgeCasesRoundTrip: every edge-case trace survives
// ReadData(WriteData(d)) deep-equal under both formats.
func TestTraceEdgeCasesRoundTrip(t *testing.T) {
	for _, format := range []string{FormatV2, FormatV3} {
		for _, c := range edgeCases() {
			t.Run(format+"/"+c.name, func(t *testing.T) {
				want := c.want
				if want == nil {
					want = c.in
				}
				got, err := ReadData(bytes.NewReader(encode(t, edgeData(format, c.in))))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, edgeData(format, want)) {
					t.Errorf("roundtrip diverged:\n got %+v\nwant %+v", got.PerVP[1][0], want)
				}
			})
		}
	}
}

// TestV3WriterRejectsInvalidLSE: an LSE that does not fit its wire widths
// fails the write instead of being truncated into a different label.
func TestV3WriterRejectsInvalidLSE(t *testing.T) {
	for _, e := range []mpls.LSE{{Label: mpls.MaxLabel + 1, S: true}, {Label: 16005, TC: 8}} {
		tr := &probe.Trace{Hops: []probe.Hop{{TTL: 1, Addr: addr("10.1.0.1"), Stack: mpls.Stack{e}}}}
		err := WriteData(io.Discard, edgeData(FormatV3, tr))
		if !errors.Is(err, mpls.ErrLabelRange) {
			t.Errorf("LSE %+v: err = %v, want mpls.ErrLabelRange", e, err)
		}
	}
}

// TestTraceSlabStacksDoNotAlias: hops share one decoded LSE slab, so an
// append to one hop's stack must copy rather than overwrite the next hop.
func TestTraceSlabStacksDoNotAlias(t *testing.T) {
	tr := &probe.Trace{Hops: []probe.Hop{
		{TTL: 1, Stack: mpls.Stack{{Label: 100, S: true}}},
		{TTL: 2, Stack: mpls.Stack{{Label: 200, S: true}}},
	}}
	payload, err := TraceRecord{Trace: tr}.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec TraceRecord
	if err := UnmarshalTraceRecordInto(&rec, payload); err != nil {
		t.Fatal(err)
	}
	_ = append(rec.Trace.Hops[0].Stack, mpls.LSE{Label: 999})
	if got := rec.Trace.Hops[1].Stack[0].Label; got != 200 {
		t.Errorf("append to hop 0's stack overwrote hop 1's entry: label %d", got)
	}
}

// TestAllocBudgetTraceCodec pins the v3 codec's wire-path budgets: an
// encode into a warmed writer allocates nothing, and a decode allocates at
// most the Trace, its Hops and one LSE slab when the trace carries no
// failure text.
func TestAllocBudgetTraceCodec(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	rec := TraceRecord{VPIndex: 3, Trace: benchData().PerVP[3][7]}
	aw, err := newWriter(io.Discard, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.writeTrace(rec); err != nil { // warm the scratch buffer
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := aw.writeTrace(rec); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("v3 trace encode: %.1f allocs/op, budget 0", got)
	}

	payload, err := rec.AppendMarshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out TraceRecord
	if got := testing.AllocsPerRun(200, func() {
		if err := UnmarshalTraceRecordInto(&out, payload); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Errorf("v3 trace decode: %.1f allocs/op, budget 3", got)
	}
	if !reflect.DeepEqual(out, rec) {
		t.Errorf("decode diverged:\n got %+v\nwant %+v", out.Trace, rec.Trace)
	}

	// StreamRecords' lent trace: once it has decoded the trace, decoding it
	// again reuses every slice.
	var lent lentTrace
	if _, err := lent.decode(payload); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := lent.decode(payload); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("v3 lent trace decode: %.1f allocs/op, budget 0", got)
	}
}

// TestLentTraceOverwritesEveryField decodes every edge-case trace into a
// lent trace that last held each of the others: the result must equal a
// fresh decode, so no field, hop or stack of the previous trace survives.
func TestLentTraceOverwritesEveryField(t *testing.T) {
	cases := edgeCases()
	cases = append(cases, edgeCase{name: "bench", in: benchData().PerVP[3][7]})
	payloads := make([][]byte, len(cases))
	for i, c := range cases {
		p, err := TraceRecord{VPIndex: i, Trace: c.in}.AppendMarshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = p
	}
	for i := range cases {
		for j := range cases {
			var lent lentTrace
			if _, err := lent.decode(payloads[i]); err != nil {
				t.Fatal(err)
			}
			vp, err := lent.decode(payloads[j])
			if err != nil {
				t.Fatal(err)
			}
			var fresh TraceRecord
			if err := UnmarshalTraceRecordInto(&fresh, payloads[j]); err != nil {
				t.Fatal(err)
			}
			if got := (TraceRecord{VPIndex: vp, Trace: &lent.tr}); !reflect.DeepEqual(got, fresh) {
				t.Errorf("%s after %s:\n got %+v\nwant %+v", cases[j].name, cases[i].name, got.Trace, fresh.Trace)
			}
		}
	}
}

// forgedPayload hand-assembles a v3 trace payload whose counts claim far
// more than the bytes that follow: hops, total LSEs, one hop's stack
// depth, or the error string's length.
func forgedPayload(hops, lses, depth, errLen uint64) []byte {
	b := []byte{0, addrNone, addrNone, 0, 0} // vp_index, vp, dst, flow_id, halt
	b = binary.AppendUvarint(b, errLen)
	b = append(b, 0) // reveal_errs
	b = binary.AppendUvarint(b, hops)
	b = binary.AppendUvarint(b, lses)
	b = append(b, 2, addrNone)         // hop: ttl 1, zero addr
	b = append(b, make([]byte, 13)...) // rtt, icmp bytes, flags
	return binary.AppendUvarint(b, depth)
}

func forgedPayloads() [][]byte {
	return [][]byte{
		forgedPayload(1<<40, 0, 0, 0),  // hop count
		forgedPayload(2, 1<<40, 0, 0),  // total LSE count
		forgedPayload(2, 1, 1<<30, 0),  // one hop's stack depth
		forgedPayload(2, 0, 0, 1<<40),  // string length
		forgedPayload(2, 0, 0, 0)[:20], // a cut hop
	}
}

// TestForgedTraceCountsRejected: a hostile count fails as ErrCorrupt
// before any allocation it would size.
func TestForgedTraceCountsRejected(t *testing.T) {
	for i, p := range forgedPayloads() {
		var rec TraceRecord
		if err := UnmarshalTraceRecordInto(&rec, p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("forged payload %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	// The well-formed variant decodes, so the rejections above are the
	// counts' doing.
	var rec TraceRecord
	if err := UnmarshalTraceRecordInto(&rec, forgedPayload(2, 0, 0, 0)); err != nil {
		t.Errorf("honest payload rejected: %v", err)
	}
}

// decodedFootprint is the heap a decoded record holds: the bound
// FuzzTraceRecord checks against the input length.
func decodedFootprint(tr *probe.Trace) int {
	n := int(unsafe.Sizeof(*tr)) + len(tr.Err) + cap(tr.RevealErrs)*int(unsafe.Sizeof(""))
	for _, s := range tr.RevealErrs {
		n += len(s)
	}
	n += cap(tr.Hops) * int(unsafe.Sizeof(probe.Hop{}))
	for i := range tr.Hops {
		n += cap(tr.Hops[i].Stack) * int(unsafe.Sizeof(mpls.LSE{}))
		n += len(tr.Hops[i].Addr.Zone())
	}
	return n
}

// FuzzTraceRecord attacks the v3 payload codec directly. Contract: never
// panic; an accepted payload's decoded footprint is bounded by a small
// multiple of its length; and decode∘encode∘decode is a fixpoint — the
// re-encoding decodes to the same value and is itself byte-stable.
func FuzzTraceRecord(f *testing.F) {
	for _, c := range edgeCases() {
		p, err := TraceRecord{VPIndex: 1, Trace: c.in}.AppendMarshal(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	for _, p := range forgedPayloads() {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		var rec TraceRecord
		if err := UnmarshalTraceRecordInto(&rec, in); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		// The densest expansion is a run of empty reveal-error strings: one
		// string header per input byte. Hops (Hop size over minHopSize) and
		// LSEs (LSE size over LSESize) expand less.
		const perByte = int(unsafe.Sizeof(""))
		if got, bound := decodedFootprint(rec.Trace), int(unsafe.Sizeof(probe.Trace{}))+perByte*len(in); got > bound {
			t.Fatalf("%d-byte payload decoded into %d heap bytes (bound %d)", len(in), got, bound)
		}
		out, err := rec.AppendMarshal(nil)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		var again TraceRecord
		if err := UnmarshalTraceRecordInto(&again, out); err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if out2, err := again.AppendMarshal(nil); err != nil || !bytes.Equal(out2, out) {
			t.Fatalf("re-encoding is not byte-stable (err %v)", err)
		}
		// A NaN RTT round-trips bit-exactly but never compares equal, so
		// RTTs are compared as bits and cleared before the deep comparison.
		if len(again.Trace.Hops) == len(rec.Trace.Hops) {
			for i := range rec.Trace.Hops {
				a, b := &rec.Trace.Hops[i], &again.Trace.Hops[i]
				if math.Float64bits(a.RTT) != math.Float64bits(b.RTT) {
					t.Fatalf("hop %d RTT bits %x, want %x", i, math.Float64bits(b.RTT), math.Float64bits(a.RTT))
				}
				a.RTT, b.RTT = 0, 0
			}
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("decode∘encode∘decode diverged:\n got %+v\nwant %+v", again.Trace, rec.Trace)
		}
	})
}
