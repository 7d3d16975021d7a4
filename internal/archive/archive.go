// Package archive implements the durable storage boundary between the
// measurement and analysis layers of the campaign pipeline: a versioned,
// length-prefixed, CRC-checked binary record stream (warts-style) holding
// one AS's full campaign — metadata, per-VP traces, fingerprint
// annotations, alias sets, bdrmap borders, and simulator ground truth.
//
// The on-disk format is a magic line followed by a sequence of framed
// records and a mandatory end trailer:
//
//	magic   "arest.archive.v2\n" or "arest.archive.v3\n"  (17 bytes)
//	record  type    uint8
//	        length  uint32 big-endian        (payload bytes)
//	        payload schema fixed per type and version
//	        crc     uint32 big-endian        (CRC-32C over type+length+payload)
//	...
//	end     a TypeEnd record whose payload carries the record and trace
//	        counts; a stream without it is truncated (an interrupted
//	        writer), which readers report as ErrTruncated.
//
// Both versions put all side data (fingerprints, aliases, borders, ground
// truth, degradation) ahead of the trace run, so a one-pass streaming
// consumer can seal its annotation state before the first trace arrives.
// They differ only in the TypeTrace payload: JSON in v2, the fixed-layout
// binary codec of tracecodec.go in v3. Every other payload is JSON in
// both. Readers accept both; the v1 container (traces before side data)
// is no longer read.
//
// Writer and Reader stream one record at a time, so a campaign never needs
// to be wholly resident; Stream in stream.go folds records into a Visitor
// one at a time, and the Data aggregate in data.go is a convenience for
// pipelines that do want everything in memory.
package archive

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// MagicV2 opens every v2 archive. The trailing newline keeps accidental
// `cat` of an archive from gluing into a terminal line and gives format
// sniffers an unambiguous 17-byte prefix.
const MagicV2 = "arest.archive.v2\n"

// MagicV3 opens every v3 archive (v2 framing and record order, binary
// trace payloads). Deliberately the same length as MagicV2 so sniffing and
// version detection read one fixed-size prefix.
const MagicV3 = "arest.archive.v3\n"

const magicLen = len(MagicV2)

// Type tags one framed record.
type Type uint8

// Record types. Values are part of the on-disk format and
// must never be renumbered.
const (
	TypeMeta        Type = 1 // campaign metadata (one per archive, first)
	TypeVP          Type = 2 // one vantage point (index, address, trace count)
	TypeTrace       Type = 3 // one probe.Trace with its VP index
	TypeFingerprint Type = 4 // one interface vendor annotation (snmp or ttl)
	TypeAliasSet    Type = 5 // one resolved alias set
	TypeBorder      Type = 6 // one bdrmap owner annotation
	TypeSREnabled   Type = 7 // one ground-truth SR-enabled interface
	TypeDegraded    Type = 8 // measurement degradation summary (at most one)
	TypeEnd         Type = 0x7f
)

func (t Type) String() string {
	switch t {
	case TypeMeta:
		return "meta"
	case TypeVP:
		return "vp"
	case TypeTrace:
		return "trace"
	case TypeFingerprint:
		return "fingerprint"
	case TypeAliasSet:
		return "alias-set"
	case TypeBorder:
		return "border"
	case TypeSREnabled:
		return "sr-enabled"
	case TypeDegraded:
		return "degraded"
	case TypeEnd:
		return "end"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// MaxPayload bounds a single record's payload. It is far above anything
// the pipeline produces; its purpose is to keep a corrupted or hostile
// length field from driving a multi-gigabyte allocation.
const MaxPayload = 1 << 26

var (
	// ErrBadMagic reports a stream that starts with neither MagicV2 nor
	// MagicV3.
	ErrBadMagic = errors.New("archive: bad magic (not an arest.archive stream)")
	// ErrCorrupt reports a CRC mismatch or malformed frame.
	ErrCorrupt = errors.New("archive: corrupt record")
	// ErrTruncated reports a stream that ended without the end trailer —
	// the signature of an interrupted writer.
	ErrTruncated = errors.New("archive: truncated stream (no end trailer)")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer emits one archive. Records are framed and checksummed as they
// are written; Close appends the end trailer. A Writer is not safe for
// concurrent use.
type Writer struct {
	bw      *bufio.Writer
	version int
	// scratch is the reused v3 trace payload buffer: a trace encodes with
	// no allocation once it has grown to the largest trace.
	scratch []byte
	// frame holds a record's header, then its CRC. As a field it costs no
	// per-record allocation, where a local array would escape through
	// bufio's io.Writer call.
	frame   [5]byte
	records int
	traces  int
	closed  bool
	err     error
}

// newWriter writes the magic of container version 2 or 3 and returns a
// streaming record writer. Record order is the caller's responsibility;
// WriteData produces the canonical order.
func newWriter(w io.Writer, version int) (*Writer, error) {
	magic := MagicV2
	if version == 3 {
		magic = MagicV3
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("archive: write magic: %w", err)
	}
	return &Writer{bw: bw, version: version}, nil
}

// endPayload is the trailer body: record and trace counts let readers
// verify they saw the whole stream.
type endPayload struct {
	Records int `json:"records"`
	Traces  int `json:"traces"`
}

func (w *Writer) usable() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("archive: write after Close")
	}
	return nil
}

// writeRecord frames one JSON payload.
func (w *Writer) writeRecord(t Type, payload any) error {
	if err := w.usable(); err != nil {
		return err
	}
	body, err := json.Marshal(payload)
	if err != nil {
		w.err = fmt.Errorf("archive: encode %s: %w", t, err)
		return w.err
	}
	return w.writeFrame(t, body)
}

// writeTrace frames one trace record in the writer's version: JSON in v2,
// the binary codec in v3, appended into the reused scratch buffer.
func (w *Writer) writeTrace(rec TraceRecord) error {
	if w.version < 3 {
		return w.writeRecord(TypeTrace, rec)
	}
	if err := w.usable(); err != nil {
		return err
	}
	body, err := rec.AppendMarshal(w.scratch[:0])
	if err != nil {
		w.err = err
		return err
	}
	w.scratch = body
	return w.writeFrame(TypeTrace, body)
}

// writeFrame frames one encoded payload. The CRC covers the type byte, the
// length field, and the payload, so a flipped bit anywhere in the frame is
// caught.
func (w *Writer) writeFrame(t Type, body []byte) error {
	if len(body) > MaxPayload {
		w.err = fmt.Errorf("archive: %s payload %d bytes exceeds cap %d", t, len(body), MaxPayload)
		return w.err
	}
	hdr := w.frame[:]
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(body)))
	crc := crc32.Update(0, castagnoli, hdr)
	crc = crc32.Update(crc, castagnoli, body)
	if _, err := w.bw.Write(hdr); err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(body); err != nil {
		w.err = err
		return err
	}
	tail := w.frame[:4]
	binary.BigEndian.PutUint32(tail, crc)
	if _, err := w.bw.Write(tail); err != nil {
		w.err = err
		return err
	}
	w.records++
	if t == TypeTrace {
		w.traces++
	}
	return nil
}

// Close writes the end trailer and flushes. The archive is complete only
// after Close returns nil.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	end := endPayload{Records: w.records, Traces: w.traces}
	if err := w.writeRecord(TypeEnd, end); err != nil {
		return err
	}
	w.closed = true
	return w.bw.Flush()
}

// Reader streams records out of a v2 or v3 archive.
type Reader struct {
	br      *bufio.Reader
	version int
	frame   [5]byte // header, then CRC: a field, like Writer.frame
	records int
	traces  int
	done    bool
	offset  int64
}

// NewReader checks the magic and returns a streaming record reader. Both
// container versions are accepted; Version reports which one was found.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var magic [magicLen]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	version := 0
	switch string(magic[:]) {
	case MagicV2:
		version = 2
	case MagicV3:
		version = 3
	default:
		return nil, ErrBadMagic
	}
	return &Reader{br: br, version: version, offset: int64(magicLen)}, nil
}

// Version returns the container version (2 or 3) declared by the magic.
func (r *Reader) Version() int { return r.version }

// Next returns the next record's type and raw payload. It returns io.EOF
// after the end trailer has been consumed, ErrTruncated if the stream
// stops without one, and ErrCorrupt on a CRC or framing error. The payload
// buffer is owned by the caller.
func (r *Reader) Next() (Type, []byte, error) { return r.next(nil) }

// next is Next reading the payload into buf's backing array when it is
// large enough, so a caller that copies every decoded field out (as
// StreamRecords does) reads a whole archive through one buffer.
func (r *Reader) next(buf []byte) (Type, []byte, error) {
	if r.done {
		return 0, nil, io.EOF
	}
	hdr := r.frame[:]
	if _, err := io.ReadFull(r.br, hdr); err != nil {
		if err == io.EOF {
			return 0, nil, ErrTruncated
		}
		return 0, nil, fmt.Errorf("%w: header at offset %d: %v", ErrTruncated, r.offset, err)
	}
	t := Type(hdr[0])
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: %s length %d exceeds cap at offset %d", ErrCorrupt, t, n, r.offset)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return 0, nil, fmt.Errorf("%w: payload at offset %d: %v", ErrTruncated, r.offset, err)
	}
	crc := crc32.Update(0, castagnoli, hdr)
	tail := r.frame[:4]
	if _, err := io.ReadFull(r.br, tail); err != nil {
		return 0, nil, fmt.Errorf("%w: checksum at offset %d: %v", ErrTruncated, r.offset, err)
	}
	crc = crc32.Update(crc, castagnoli, body)
	if got := binary.BigEndian.Uint32(tail); got != crc {
		return 0, nil, fmt.Errorf("%w: %s at offset %d: crc %08x, want %08x", ErrCorrupt, t, r.offset, got, crc)
	}
	r.offset += int64(5 + len(body) + 4)
	if t == TypeEnd {
		var end endPayload
		if err := json.Unmarshal(body, &end); err != nil {
			return 0, nil, fmt.Errorf("%w: end trailer: %v", ErrCorrupt, err)
		}
		if end.Records != r.records || end.Traces != r.traces {
			return 0, nil, fmt.Errorf("%w: end trailer counts %d records/%d traces, saw %d/%d",
				ErrCorrupt, end.Records, end.Traces, r.records, r.traces)
		}
		r.done = true
		return t, body, nil
	}
	r.records++
	if t == TypeTrace {
		r.traces++
	}
	return t, body, nil
}
