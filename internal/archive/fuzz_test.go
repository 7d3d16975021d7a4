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
// unit tests pin individually, and v3 trace records with forged counts.
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
		f.Add(forgedArchive(f, p))
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

// forgedArchive frames a raw v3 trace payload in an otherwise valid
// archive (correct CRCs and trailer), so the fuzzer starts from inputs
// that reach the payload decoder.
func forgedArchive(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw, err := newWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := fixtureData()
	if err := aw.writeRecord(TypeMeta, d.Meta); err != nil {
		t.Fatal(err)
	}
	if err := aw.writeRecord(TypeVP, VPRecord{Index: 0, Addr: d.VPs[0], Traces: 1}); err != nil {
		t.Fatal(err)
	}
	if err := aw.writeFrame(TypeTrace, payload); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
