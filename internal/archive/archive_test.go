package archive

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"arest/internal/asgen"
	"arest/internal/mpls"
	"arest/internal/probe"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

// fixtureData builds a small hand-rolled campaign in the current writer
// format (v3) exercising every record type, including edge shapes: a VP
// with zero traces, an unresponsive hop, a revealed hop, and a
// decode-error hop.
func fixtureData() *Data {
	rec := asgen.Record{ID: 46, ASN: 293, Name: "ESnet", Category: asgen.Transit,
		TracesSent: 123, IPsDiscovered: 45, CiscoConfirmed: true}
	dep := asgen.Deployment{
		Routers: 12, ExtraLinkFrac: 0.25, MPLS: true, SRFrac: 1,
		VendorWeights: map[mpls.Vendor]int{mpls.VendorNokia: 100},
		PropagateProb: 0.93, RFC4950Prob: 1, ServiceProb: 0.25, AlignSRGB: true,
		CustomSRGB: mpls.LabelRange{Lo: 100000, Hi: 107999},
	}
	tr1 := &probe.Trace{
		VP: addr("172.16.0.1"), Dst: addr("100.1.0.1"), FlowID: 3,
		Hops: []probe.Hop{
			{TTL: 1, Addr: addr("10.1.0.1"), RTT: 1.25, ICMPType: 11, ReplyTTL: 253, QTTL: 2,
				Stack: mpls.Stack{{Label: 16005, TC: 1, S: true, TTL: 1}}},
			{TTL: 2}, // unresponsive
			{TTL: 3, Addr: addr("10.1.0.3"), RTT: 2.5, ICMPType: 11, Revealed: true},
			{TTL: 4, Addr: addr("100.1.0.1"), RTT: 3.75, ICMPType: 3, DecodeError: true},
		},
		Halt: probe.HaltReached,
	}
	tr2 := &probe.Trace{
		VP: addr("172.16.0.1"), Dst: addr("100.1.0.2"),
		Hops: []probe.Hop{{TTL: 1, Addr: addr("10.1.0.1"), RTT: 0.5, ICMPType: 11}},
		Halt: probe.HaltGaps,
	}
	return &Data{
		Meta: Meta{Format: FormatV3, Record: rec, Dep: dep, Seed: 42,
			NumVPs: 2, MaxTargets: 8, FlowsPerTarget: 2},
		VPs:   []netip.Addr{addr("172.16.0.1"), addr("172.16.1.1")},
		PerVP: [][]*probe.Trace{{tr1, tr2}, {}},
		SNMP:  map[netip.Addr]mpls.Vendor{addr("10.1.0.1"): mpls.VendorNokia},
		TTL: map[netip.Addr]mpls.Vendor{
			addr("10.1.0.3"): mpls.VendorJuniper,
			addr("10.1.0.1"): mpls.VendorCiscoHuawei,
		},
		Aliases:   [][]netip.Addr{{addr("10.1.0.1"), addr("10.1.0.3")}},
		Borders:   map[netip.Addr]int{addr("10.1.0.1"): 293, addr("10.1.0.3"): 293},
		SREnabled: []netip.Addr{addr("10.1.0.1"), addr("10.1.0.3")},
	}
}

func encode(t testing.TB, d *Data) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteData(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := fixtureData()
	raw := encode(t, want)
	got, err := ReadData(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("roundtrip diverged:\n got %+v\nwant %+v", got, want)
	}
	// Re-encoding the decoded value must reproduce the bytes: the writer's
	// canonical record order makes the encoding a function of the value.
	if again := encode(t, got); !bytes.Equal(again, raw) {
		t.Error("re-encoding decoded data diverged from original bytes")
	}
}

func TestEmptySectionsRoundTrip(t *testing.T) {
	d := fixtureData()
	d.SNMP = map[netip.Addr]mpls.Vendor{}
	d.TTL = map[netip.Addr]mpls.Vendor{}
	d.Aliases = nil
	d.Borders = map[netip.Addr]int{}
	d.SREnabled = nil
	got, err := ReadData(bytes.NewReader(encode(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("empty sections diverged: %+v", got)
	}
}

func TestTruncatedStream(t *testing.T) {
	raw := encode(t, fixtureData())
	// Every proper prefix must fail with ErrTruncated or ErrCorrupt (for
	// cuts inside the magic, ErrBadMagic) — never succeed, never panic.
	for _, cut := range []int{0, 5, magicLen, magicLen + 3, len(raw) / 2, len(raw) - 1} {
		_, err := ReadData(bytes.NewReader(raw[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d bytes accepted", cut)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut %d: unexpected error class: %v", cut, err)
		}
	}
}

func TestCorruptedStream(t *testing.T) {
	raw := encode(t, fixtureData())
	// Flip one bit at several offsets past the magic: CRC must catch it.
	for _, off := range []int{magicLen, magicLen + 7, len(raw) / 2, len(raw) - 3} {
		mut := bytes.Clone(raw)
		mut[off] ^= 0x20
		if _, err := ReadData(bytes.NewReader(mut)); err == nil {
			t.Errorf("bit flip at %d accepted", off)
		}
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := ReadData(strings.NewReader("#{\"asn\":1}\n{}\n")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("jsonl input: err = %v, want ErrBadMagic", err)
	}
	if _, err := ReadData(strings.NewReader("arest.archive.v9\nrest")); !errors.Is(err, ErrBadMagic) {
		t.Errorf("wrong version: err = %v, want ErrBadMagic", err)
	}
}

func TestHugeLengthRejected(t *testing.T) {
	// A frame whose length field exceeds MaxPayload must be rejected
	// without attempting the allocation.
	var buf bytes.Buffer
	buf.WriteString(MagicV3)
	buf.Write([]byte{byte(TypeMeta), 0xff, 0xff, 0xff, 0xff})
	if _, err := ReadData(&buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt", err)
	}
}

// TestForgedLengthAllocatesWithInput: a frame header claiming MaxPayload
// bytes must cost memory in proportion to the payload bytes that follow
// it, not to the claim, and a real record longer than payloadChunk must
// still round-trip.
func TestForgedLengthAllocatesWithInput(t *testing.T) {
	for _, c := range []struct {
		payload int
		budget  uint64
	}{{0, 1 << 20}, {1 << 20, 4 << 20}} {
		in := append([]byte(MagicV3), byte(TypeMeta), 0, 0, 0, 0)
		binary.BigEndian.PutUint32(in[magicLen+1:], MaxPayload)
		in = append(in, make([]byte, c.payload)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Stream(bytes.NewReader(in), &recordingVisitor{})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%d payload bytes: err = %v, want ErrTruncated", c.payload, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > c.budget {
			t.Errorf("%d payload bytes: allocated %d bytes, budget %d", c.payload, got, c.budget)
		}
	}

	d := fixtureData()
	big := make([]netip.Addr, 3*payloadChunk/len(`"10.0.0.0",`))
	for i := range big {
		big[i] = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	d.Aliases = append(d.Aliases, big)
	got, err := ReadData(bytes.NewReader(encode(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Error("archive with a record longer than payloadChunk diverged on roundtrip")
	}
}

func TestEndTrailerCountsVerified(t *testing.T) {
	d := fixtureData()
	var buf bytes.Buffer
	aw, err := newWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.writeRecord(TypeMeta, d.Meta); err != nil {
		t.Fatal(err)
	}
	// Trailer claims one more record than was written.
	if err := aw.writeRecord(TypeEnd, endPayload{Records: 2, Traces: 0}); err != nil {
		t.Fatal(err)
	}
	if err := aw.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadData(&buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt for trailer count mismatch", err)
	}
}

func TestMetaMustComeFirst(t *testing.T) {
	var buf bytes.Buffer
	aw, err := newWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.writeRecord(TypeVP, VPRecord{Index: 0, Addr: addr("172.16.0.1")}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadData(&buf); !errors.Is(err, ErrCorrupt) {
		t.Errorf("err = %v, want ErrCorrupt for meta-less stream", err)
	}
}

func TestUnknownRecordTypeSkipped(t *testing.T) {
	d := fixtureData()
	var buf bytes.Buffer
	aw, err := newWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.writeRecord(TypeMeta, d.Meta); err != nil {
		t.Fatal(err)
	}
	// A future additive record type must not break a reader.
	if err := aw.writeRecord(Type(42), map[string]int{"future": 1}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadData(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Record.ASN != d.Meta.Record.ASN {
		t.Error("meta lost around unknown record")
	}
}

func TestWriteFileAtomicAndReadFile(t *testing.T) {
	d := fixtureData()
	path := filepath.Join(t.TempDir(), "as-046.arest")
	if err := WriteFile(path, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Error("file roundtrip diverged")
	}
	dir, err := filepath.Glob(filepath.Join(filepath.Dir(path), ".arest-tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dir) != 0 {
		t.Errorf("temp files left behind: %v", dir)
	}
}

func TestStreamingReaderSeesAllRecords(t *testing.T) {
	raw := encode(t, fixtureData())
	ar, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Type]int{}
	for {
		typ, _, err := ar.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		counts[typ]++
		if typ == TypeEnd {
			break
		}
	}
	want := map[Type]int{TypeMeta: 1, TypeVP: 2, TypeTrace: 2, TypeFingerprint: 3,
		TypeAliasSet: 1, TypeBorder: 2, TypeSREnabled: 2, TypeEnd: 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("record counts = %v, want %v", counts, want)
	}
	// After the trailer the reader reports EOF.
	if _, _, err := ar.Next(); err != io.EOF {
		t.Errorf("post-trailer Next: %v, want io.EOF", err)
	}
}

func TestDegradedRoundTrip(t *testing.T) {
	// A degraded campaign — an error-halted trace with its failure fields
	// plus the Degraded summary record — must survive the archive codec
	// bit-stably, so a replayed Detect (and the trace-failure budget) sees
	// exactly the degradation the live measurement saw.
	d := fixtureData()
	d.PerVP[1] = []*probe.Trace{{
		VP:  addr("172.16.1.1"),
		Dst: addr("100.1.0.9"),
		Hops: []probe.Hop{
			{TTL: 1, Addr: addr("10.1.0.1"), RTT: 0.5, ICMPType: 11, ReplyTTL: 253},
		},
		Halt:       probe.HaltError,
		Err:        "probe: injected fault",
		RevealErrs: []string{"dpr 10.1.0.3: aux trace: injected fault"},
	}}
	d.Degraded = &Degraded{FailedTraces: 1, TotalTraces: 3, ByVP: []int{0, 1}}

	raw := encode(t, d)
	got, err := ReadData(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("degraded roundtrip diverged:\n got %+v\nwant %+v", got, d)
	}
	tr := got.PerVP[1][0]
	if !tr.Failed() || tr.Err != "probe: injected fault" || len(tr.RevealErrs) != 1 {
		t.Errorf("failure fields lost in roundtrip: %+v", tr)
	}
	if again := encode(t, got); !bytes.Equal(again, raw) {
		t.Error("re-encoding decoded degraded data diverged from original bytes")
	}
}
