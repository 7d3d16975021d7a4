// Streaming fold API: Stream decodes, validates, and dispatches one
// archive's records to a Visitor one at a time, so a consumer's memory is
// bounded by its own accumulated state, never by the archive size.
// ReadData in data.go is a thin client folding into a
// wholly-resident Data; exp.DetectStream folds straight into analysis
// aggregates. Data.Visit dispatches an in-memory Data's records to the
// same interface, in the order WriteData encodes them.
package archive

import (
	"fmt"
	"io"
)

// Visitor receives one archive's records, decoded and validated, in
// stream order. Structural validation (meta first and unique, contiguous
// VP indices, traces referencing known VPs, well-formed fingerprint
// sources, at most one degradation record) has already happened when a
// method is called, so implementations fold payloads without re-checking
// the container. A non-nil error from any method aborts the stream and is
// returned from Stream unchanged, so sentinel errors survive errors.Is/As.
//
// Stream lends traces, it does not give them: the *probe.Trace a
// TraceRecord carries, with its hops and label stacks, is valid only until
// Trace returns, because the next trace record is decoded into the same
// memory. A visitor that keeps a streamed trace copies it
// (probe.Trace.Clone, or CopyInto its own storage). Data.Visit instead
// hands out the Data's own traces. Every other record is the visitor's to
// keep.
type Visitor interface {
	Meta(Meta) error
	VP(VPRecord) error
	Trace(TraceRecord) error
	Fingerprint(FingerprintRecord) error
	AliasSet(AliasSetRecord) error
	Border(BorderRecord) error
	SREnabled(SREnabledRecord) error
	Degraded(Degraded) error
}

// Stream checks the magic and folds every record of the archive into v.
// It accepts both container versions.
func Stream(r io.Reader, v Visitor) error {
	ar, err := NewReader(r)
	if err != nil {
		return err
	}
	return StreamRecords(ar, v)
}

// StreamRecords folds every remaining record of an opened stream into v.
// It owns the structural validation shared by all consumers and returns
// ErrTruncated/ErrCorrupt on container damage, or the visitor's own error
// verbatim. Unknown record types are skipped, not fatal: a reader of this
// vintage can cross archives produced by a writer with additive
// extensions. Payloads are read through one reused buffer that no visited
// value aliases. VP, fingerprint, border and SR-enabled payloads in the
// form json.Marshal writes are decoded by the scanner of sidescan.go, any
// other spelling and every other JSON payload by encoding/json. Every v3
// trace payload is decoded into one reused trace, which is lent to v.Trace
// under the Visitor contract; v2 trace payloads decode into fresh memory,
// and are lent on the same terms.
func StreamRecords(ar *Reader, v Visitor) error {
	sawMeta := false
	sawDegraded := false
	numVPs := 0
	var buf []byte
	var lent lentTrace
	for {
		t, body, err := ar.next(buf)
		buf = body
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if t == TypeEnd {
			break
		}
		if !sawMeta && t != TypeMeta {
			return fmt.Errorf("%w: first record is %s, want meta", ErrCorrupt, t)
		}
		switch t {
		case TypeMeta:
			if sawMeta {
				return fmt.Errorf("%w: duplicate meta record", ErrCorrupt)
			}
			var m Meta
			if err := decode(body, &m); err != nil {
				return err
			}
			if fv, err := formatVersion(m.Format); err != nil || fv != ar.Version() {
				return fmt.Errorf("%w: meta format %q in a v%d container", ErrCorrupt, m.Format, ar.Version())
			}
			sawMeta = true
			if err := v.Meta(m); err != nil {
				return err
			}
		case TypeVP:
			rec, err := sideRecord(body, scanVP)
			if err != nil {
				return err
			}
			if rec.Index != numVPs {
				return fmt.Errorf("%w: vp record index %d, want %d", ErrCorrupt, rec.Index, numVPs)
			}
			numVPs++
			if err := v.VP(rec); err != nil {
				return err
			}
		case TypeTrace:
			var rec TraceRecord
			if ar.Version() >= 3 {
				rec.Trace = &lent.tr
				rec.VPIndex, err = lent.decode(body)
			} else {
				var v2 TraceRecord // escapes through encoding/json; rec stays off the heap
				err = decode(body, &v2)
				rec = v2
			}
			if err != nil {
				return err
			}
			if rec.VPIndex < 0 || rec.VPIndex >= numVPs {
				return fmt.Errorf("%w: trace references unknown vp %d", ErrCorrupt, rec.VPIndex)
			}
			if rec.Trace == nil {
				return fmt.Errorf("%w: trace record without trace body", ErrCorrupt)
			}
			if err := v.Trace(rec); err != nil {
				return err
			}
		case TypeFingerprint:
			rec, err := sideRecord(body, scanFingerprint)
			if err != nil {
				return err
			}
			if rec.Source != SourceSNMP && rec.Source != SourceTTL {
				return fmt.Errorf("%w: fingerprint source %q", ErrCorrupt, rec.Source)
			}
			if err := v.Fingerprint(rec); err != nil {
				return err
			}
		case TypeAliasSet:
			var rec AliasSetRecord
			if err := decode(body, &rec); err != nil {
				return err
			}
			if err := v.AliasSet(rec); err != nil {
				return err
			}
		case TypeBorder:
			rec, err := sideRecord(body, scanBorder)
			if err != nil {
				return err
			}
			if err := v.Border(rec); err != nil {
				return err
			}
		case TypeSREnabled:
			rec, err := sideRecord(body, scanSREnabled)
			if err != nil {
				return err
			}
			if err := v.SREnabled(rec); err != nil {
				return err
			}
		case TypeDegraded:
			if sawDegraded {
				return fmt.Errorf("%w: duplicate degraded record", ErrCorrupt)
			}
			sawDegraded = true
			var rec Degraded
			if err := decode(body, &rec); err != nil {
				return err
			}
			if err := v.Degraded(rec); err != nil {
				return err
			}
		}
	}
	if !sawMeta {
		return fmt.Errorf("%w: no meta record", ErrCorrupt)
	}
	return nil
}
