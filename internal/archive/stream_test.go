package archive

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"arest/internal/probe"
)

// fixtureDataV2 is the fixture re-declared as format v2, with a
// degradation record so the side-data run exercises every record type.
func fixtureDataV2() *Data {
	d := fixtureData()
	d.Meta.Format = FormatV2
	d.Degraded = &Degraded{FailedTraces: 1, TotalTraces: 3, ByVP: []int{1, 0}}
	return d
}

func TestV2RoundTrip(t *testing.T) {
	want := fixtureDataV2()
	raw := encode(t, want)
	if !bytes.HasPrefix(raw, []byte(MagicV2)) {
		t.Fatalf("v2 fixture encoded under magic %q", raw[:len(MagicV2)])
	}
	got, err := ReadData(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("v2 roundtrip diverged:\n got %+v\nwant %+v", got, want)
	}
	if again := encode(t, got); !bytes.Equal(again, raw) {
		t.Error("re-encoding decoded v2 data diverged from original bytes")
	}
}

// TestV2TracesAfterSideData pins the property the streaming fold depends
// on: in a v2 archive every trace record comes after every annotation
// record, so a one-pass consumer can seal its side state before the first
// trace.
func TestV2TracesAfterSideData(t *testing.T) {
	raw := encode(t, fixtureDataV2())
	ar, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if ar.Version() != 2 {
		t.Fatalf("Version() = %d, want 2", ar.Version())
	}
	sawTrace := false
	for {
		typ, _, err := ar.Next()
		if err == io.EOF || typ == TypeEnd {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch typ {
		case TypeTrace:
			sawTrace = true
		case TypeMeta, TypeVP:
			// Precede traces.
		default:
			if sawTrace {
				t.Fatalf("%s record after a trace in a v2 stream", typ)
			}
		}
	}
	if !sawTrace {
		t.Fatal("fixture encoded no traces")
	}
}

// recordingVisitor collects the order of visited record kinds.
type recordingVisitor struct {
	kinds    []Type
	traceErr error
}

func (v *recordingVisitor) Meta(Meta) error   { v.kinds = append(v.kinds, TypeMeta); return nil }
func (v *recordingVisitor) VP(VPRecord) error { v.kinds = append(v.kinds, TypeVP); return nil }
func (v *recordingVisitor) Fingerprint(FingerprintRecord) error {
	v.kinds = append(v.kinds, TypeFingerprint)
	return nil
}
func (v *recordingVisitor) AliasSet(AliasSetRecord) error {
	v.kinds = append(v.kinds, TypeAliasSet)
	return nil
}
func (v *recordingVisitor) Border(BorderRecord) error {
	v.kinds = append(v.kinds, TypeBorder)
	return nil
}
func (v *recordingVisitor) SREnabled(SREnabledRecord) error {
	v.kinds = append(v.kinds, TypeSREnabled)
	return nil
}
func (v *recordingVisitor) Degraded(Degraded) error {
	v.kinds = append(v.kinds, TypeDegraded)
	return nil
}
func (v *recordingVisitor) Trace(TraceRecord) error {
	v.kinds = append(v.kinds, TypeTrace)
	return v.traceErr
}

func TestStreamVisitsEveryRecord(t *testing.T) {
	raw := encode(t, fixtureDataV2())
	var rv recordingVisitor
	if err := Stream(bytes.NewReader(raw), &rv); err != nil {
		t.Fatal(err)
	}
	counts := map[Type]int{}
	for _, k := range rv.kinds {
		counts[k]++
	}
	want := map[Type]int{TypeMeta: 1, TypeVP: 2, TypeTrace: 2, TypeFingerprint: 3,
		TypeAliasSet: 1, TypeBorder: 2, TypeSREnabled: 2, TypeDegraded: 1}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("visited counts = %v, want %v", counts, want)
	}
}

// TestStreamVisitorErrorPropagates: a visitor error aborts the fold and is
// returned unchanged, so sentinel errors survive errors.Is.
func TestStreamVisitorErrorPropagates(t *testing.T) {
	sentinel := errors.New("stop here")
	raw := encode(t, fixtureDataV2())
	rv := recordingVisitor{traceErr: sentinel}
	err := Stream(bytes.NewReader(raw), &rv)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the visitor's sentinel unchanged", err)
	}
	traces := 0
	for _, k := range rv.kinds {
		if k == TypeTrace {
			traces++
		}
	}
	if traces != 1 {
		t.Errorf("visited %d traces after the aborting one, want the fold to stop", traces)
	}
}

// TestFormatContainerMismatch: the meta record's declared format must
// match the container magic, in both directions.
func TestFormatContainerMismatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version int
		format  string
	}{
		{"v3 meta in v2 container", 2, FormatV3},
		{"v2 meta in v3 container", 3, FormatV2},
		{"unknown format", 3, "arest.archive.v9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := fixtureData()
			d.Meta.Format = tc.format
			var buf bytes.Buffer
			aw, err := newWriter(&buf, tc.version)
			if err != nil {
				t.Fatal(err)
			}
			if err := aw.writeRecord(TypeMeta, d.Meta); err != nil {
				t.Fatal(err)
			}
			if err := aw.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadData(&buf); !errors.Is(err, ErrCorrupt) {
				t.Errorf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestWriteDataRejectsUnknownFormat(t *testing.T) {
	d := fixtureData()
	d.Meta.Format = "arest.archive.v9"
	var buf bytes.Buffer
	if err := WriteData(&buf, d); err == nil {
		t.Fatal("unknown Meta.Format accepted by WriteData")
	}
}

// TestForgedVPTraceCountClamped is the hostile-header guard: a forged
// VPRecord.Traces count must neither drive a giant preallocation nor (for
// a negative count) panic. The slice still grows on demand, so a valid
// stream with a conservative header decodes fully.
func TestForgedVPTraceCountClamped(t *testing.T) {
	build := func(traceCount, actualTraces int) []byte {
		var buf bytes.Buffer
		aw, err := newWriter(&buf, 3)
		if err != nil {
			t.Fatal(err)
		}
		meta := fixtureData().Meta
		if err := aw.writeRecord(TypeMeta, meta); err != nil {
			t.Fatal(err)
		}
		if err := aw.writeRecord(TypeVP, VPRecord{Index: 0, Addr: addr("172.16.0.1"), Traces: traceCount}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < actualTraces; i++ {
			tr := &probe.Trace{VP: addr("172.16.0.1"), Dst: addr("100.1.0.1")}
			if err := aw.writeTrace(TraceRecord{VPIndex: 0, Trace: tr}); err != nil {
				t.Fatal(err)
			}
		}
		if err := aw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// A multi-gigabyte claim: decoding must succeed without honoring it.
	d, err := ReadData(bytes.NewReader(build(1<<30, 2)))
	if err != nil {
		t.Fatalf("forged huge count rejected the stream: %v", err)
	}
	if got := cap(d.PerVP[0]); got > maxTracePrealloc {
		t.Errorf("preallocated cap %d from forged header, want <= %d", got, maxTracePrealloc)
	}
	if len(d.PerVP[0]) != 2 {
		t.Errorf("decoded %d traces, want 2", len(d.PerVP[0]))
	}

	// A negative claim: make([]T, 0, n<0) would panic; the clamp must not.
	d, err = ReadData(bytes.NewReader(build(-7, 1)))
	if err != nil {
		t.Fatalf("forged negative count rejected the stream: %v", err)
	}
	if len(d.PerVP[0]) != 1 {
		t.Errorf("decoded %d traces, want 1", len(d.PerVP[0]))
	}

	// An honest count beyond the clamp: everything still decodes.
	d, err = ReadData(bytes.NewReader(build(maxTracePrealloc+50, maxTracePrealloc+50)))
	if err != nil {
		t.Fatalf("over-clamp honest stream rejected: %v", err)
	}
	if len(d.PerVP[0]) != maxTracePrealloc+50 {
		t.Errorf("decoded %d traces, want %d", len(d.PerVP[0]), maxTracePrealloc+50)
	}
}
