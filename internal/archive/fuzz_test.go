package archive

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// FuzzReadArchive throws arbitrary byte streams at the reader. The
// contract under attack: never panic, never allocate past MaxPayload per
// record, and classify every failure as ErrBadMagic, ErrTruncated, or
// ErrCorrupt. Seeds cover valid v3 and v2 archives, the corruptions the
// unit tests pin individually, v3 trace records with forged counts, and
// side records in spellings the scanner declines, which reach the JSON
// fallback.
func FuzzReadArchive(f *testing.F) {
	valid := encode(f, fixtureData())
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(MagicV3))                    // magic, no records
	f.Add(valid[:len(valid)/2])               // mid-record cut
	f.Add(valid[:len(valid)-2])               // trailer cut
	f.Add([]byte("#{\"asn\":1}\n{}\n"))       // legacy jsonl
	f.Add([]byte("arest.archive.v9\nfuture")) // unknown magic
	flip := bytes.Clone(valid)
	flip[magicLen+9] ^= 0xff // payload bit flip -> CRC mismatch
	f.Add(flip)
	long := append([]byte(MagicV3), byte(TypeTrace), 0xff, 0xff, 0xff, 0xff) // length past cap
	f.Add(long)
	f.Add(encode(f, fixtureDataV2()))
	f.Add(encode(f, fixtureDataV3()))
	for _, p := range forgedPayloads() {
		f.Add(framedArchive(f, rawRecord{TypeVP, `{"index":0,"addr":"172.16.0.1","traces":1}`},
			rawRecord{TypeTrace, string(p)}))
	}
	f.Add(framedArchive(f, append([]rawRecord{respelledVP}, respelled...)...))
	for _, r := range rejected {
		f.Add(framedArchive(f, respelledVP, r))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := ReadData(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		// An accepted stream must re-encode without error, and the result
		// must decode to the same value (the roundtrip fixpoint).
		var buf bytes.Buffer
		if err := WriteData(&buf, d); err != nil {
			t.Fatalf("accepted data does not re-encode: %v", err)
		}
		if _, err := ReadData(&buf); err != nil {
			t.Fatalf("re-encoded data does not decode: %v", err)
		}
	})
}

// FuzzReaderNext drives the streaming layer directly so the framing code
// is exercised even on inputs the Data aggregation would reject early.
func FuzzReaderNext(f *testing.F) {
	f.Add(encode(f, fixtureData()))
	f.Add([]byte(MagicV3))
	f.Fuzz(func(t *testing.T, in []byte) {
		ar, err := NewReader(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i := 0; i < 1<<16; i++ {
			typ, _, err := ar.Next()
			if err == io.EOF || err != nil || typ == TypeEnd {
				return
			}
		}
	})
}

// rawRecord is one record whose payload is framed as given.
type rawRecord struct {
	typ     Type
	payload string
}

// framedArchive frames the fixture's meta record and then recs in an
// otherwise valid v3 archive (correct CRCs and trailer), so the fuzzer
// starts from inputs that reach the payload decoders.
func framedArchive(t testing.TB, recs ...rawRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw, err := newWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.writeRecord(TypeMeta, fixtureData().Meta); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := aw.writeFrame(r.typ, []byte(r.payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
