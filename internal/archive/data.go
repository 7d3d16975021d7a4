// Typed record payloads and the whole-campaign Data aggregate: the
// interchange value between the Measure stage (which produces it against
// the live world) and the Annotate/Detect stages (which are pure functions
// of it, live or replayed from disk).
package archive

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"sort"

	"arest/internal/asgen"
	"arest/internal/mpls"
	"arest/internal/probe"
)

// Meta is the campaign-metadata record: the catalogue row, the derived
// deployment (ground-truth configuration, e.g. the provisioned SRGB), and
// the measurement knobs that shaped the probing. It carries everything a
// replay needs so analysis never reaches back into the generator.
type Meta struct {
	Format         string           `json:"format"` // FormatV2 or FormatV3; selects the container WriteData emits
	Record         asgen.Record     `json:"record"`
	Dep            asgen.Deployment `json:"dep"`
	Seed           int64            `json:"seed"`
	NumVPs         int              `json:"num_vps"`
	MaxTargets     int              `json:"max_targets"`
	FlowsPerTarget int              `json:"flows_per_target"`
}

// FormatV2 and FormatV3 are the accepted Meta.Format values. The format
// declared in the meta record must match the container magic; WriteData
// derives the magic (and the trace payload encoding) from it.
const (
	FormatV2 = "arest.archive.v2"
	FormatV3 = "arest.archive.v3"
)

// formatVersion maps a Meta.Format value to its container version.
func formatVersion(format string) (int, error) {
	switch format {
	case FormatV2:
		return 2, nil
	case FormatV3:
		return 3, nil
	}
	return 0, fmt.Errorf("archive: unknown meta format %q", format)
}

// VPRecord declares one vantage point and how many trace records follow
// for it (readers use the count for preallocation; the end trailer is the
// integrity check).
type VPRecord struct {
	Index  int        `json:"index"`
	Addr   netip.Addr `json:"addr"`
	Traces int        `json:"traces"`
}

// TraceRecord wraps one trace with its vantage-point index.
type TraceRecord struct {
	VPIndex int          `json:"vp_index"`
	Trace   *probe.Trace `json:"trace"`
}

// FingerprintSource distinguishes the two annotation datasets.
type FingerprintSource string

const (
	SourceSNMP FingerprintSource = "snmp"
	SourceTTL  FingerprintSource = "ttl"
)

// FingerprintRecord is one interface vendor annotation.
type FingerprintRecord struct {
	Addr   netip.Addr        `json:"addr"`
	Vendor mpls.Vendor       `json:"vendor"`
	Source FingerprintSource `json:"source"`
}

// AliasSetRecord is one resolved router (its interface addresses).
type AliasSetRecord struct {
	Addrs []netip.Addr `json:"addrs"`
}

// BorderRecord is one bdrmap owner annotation.
type BorderRecord struct {
	Addr netip.Addr `json:"addr"`
	ASN  int        `json:"asn"`
}

// SREnabledRecord is one ground-truth SR-enabled interface of the target
// AS, exported by the simulator for offline validation (Table 3).
type SREnabledRecord struct {
	Addr netip.Addr `json:"addr"`
}

// Degraded summarizes measurement failures the campaign absorbed: traces
// that halted with probe.HaltError instead of completing. It is written
// only when at least one trace failed, so fault-free archives are
// byte-identical to those of writers predating the record, and it rides
// inside the archive so a replayed Detect sees exactly the degradation the
// live measurement saw — including re-deriving the same accept/reject
// decision under a trace-failure budget (see exp.Config.MaxTraceFailures).
type Degraded struct {
	// FailedTraces counts traces with Halt == HaltError, across all VPs.
	FailedTraces int `json:"failed_traces"`
	// TotalTraces is the campaign's total trace count, failed included.
	TotalTraces int `json:"total_traces"`
	// ByVP counts failed traces per vantage point, indexed like Data.VPs.
	// A slice, not a map: record payloads must encode canonically.
	ByVP []int `json:"by_vp,omitempty"`
}

// Data is one AS's campaign, wholly resident: what Measure produces and
// what Annotate/Detect consume. WriteData/ReadData round-trip it through
// the record stream losslessly.
type Data struct {
	Meta      Meta
	VPs       []netip.Addr
	PerVP     [][]*probe.Trace // indexed like VPs
	SNMP      map[netip.Addr]mpls.Vendor
	TTL       map[netip.Addr]mpls.Vendor
	Aliases   [][]netip.Addr
	Borders   map[netip.Addr]int
	SREnabled []netip.Addr // sorted
	// Degraded is non-nil iff the measurement absorbed trace failures.
	Degraded *Degraded
}

// Traces flattens all vantage points' traces in VP order.
func (d *Data) Traces() []*probe.Trace {
	var out []*probe.Trace
	for _, ts := range d.PerVP {
		out = append(out, ts...)
	}
	return out
}

// sortedAddrs returns a map's keys in address order, for deterministic
// record emission.
func sortedAddrs[V any](m map[netip.Addr]V) []netip.Addr {
	out := make([]netip.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// WriteData streams the whole campaign into w in the container
// d.Meta.Format declares, in canonical record order: meta, VPs,
// fingerprints (snmp then ttl, each address-sorted), alias sets, borders,
// ground truth, degradation, traces (grouped per VP), end trailer. Side
// data precedes the traces, so a streaming consumer has all annotation
// state before the first trace. The order is canonical — byte-identical
// re-encoding is possible, which the golden-file tests pin.
func WriteData(w io.Writer, d *Data) error {
	version, err := formatVersion(d.Meta.Format)
	if err != nil {
		return err
	}
	aw, err := newWriter(w, version)
	if err != nil {
		return err
	}
	if err := aw.writeRecord(TypeMeta, d.Meta); err != nil {
		return err
	}
	for i, vp := range d.VPs {
		if err := aw.writeRecord(TypeVP, VPRecord{Index: i, Addr: vp, Traces: len(d.PerVP[i])}); err != nil {
			return err
		}
	}
	if err := writeSideData(aw, d); err != nil {
		return err
	}
	for i, ts := range d.PerVP {
		for _, tr := range ts {
			if err := aw.writeTrace(TraceRecord{VPIndex: i, Trace: tr}); err != nil {
				return err
			}
		}
	}
	return aw.Close()
}

func writeSideData(aw *Writer, d *Data) error {
	for _, src := range []struct {
		src FingerprintSource
		m   map[netip.Addr]mpls.Vendor
	}{{SourceSNMP, d.SNMP}, {SourceTTL, d.TTL}} {
		for _, a := range sortedAddrs(src.m) {
			if err := aw.writeRecord(TypeFingerprint, FingerprintRecord{Addr: a, Vendor: src.m[a], Source: src.src}); err != nil {
				return err
			}
		}
	}
	for _, set := range d.Aliases {
		if err := aw.writeRecord(TypeAliasSet, AliasSetRecord{Addrs: set}); err != nil {
			return err
		}
	}
	for _, a := range sortedAddrs(d.Borders) {
		if err := aw.writeRecord(TypeBorder, BorderRecord{Addr: a, ASN: d.Borders[a]}); err != nil {
			return err
		}
	}
	for _, a := range d.SREnabled {
		if err := aw.writeRecord(TypeSREnabled, SREnabledRecord{Addr: a}); err != nil {
			return err
		}
	}
	if d.Degraded != nil {
		if err := aw.writeRecord(TypeDegraded, d.Degraded); err != nil {
			return err
		}
	}
	return nil
}

// ReadData drains an archive into a Data. It fails with ErrTruncated on
// a stream missing its end trailer and ErrCorrupt on checksum or schema
// violations, so callers can distinguish "interrupted writer" from
// "damaged file". It is a thin client of the streaming fold in stream.go.
func ReadData(r io.Reader) (*Data, error) {
	d := &Data{
		SNMP:    map[netip.Addr]mpls.Vendor{},
		TTL:     map[netip.Addr]mpls.Vendor{},
		Borders: map[netip.Addr]int{},
	}
	if err := Stream(r, &dataVisitor{d: d}); err != nil {
		return nil, err
	}
	return d, nil
}

// maxTracePrealloc caps the per-VP slice capacity taken from the untrusted
// VPRecord.Traces count: a forged or corrupt count may not force a giant
// up-front allocation (or a panic, for a negative count). The slice still
// grows on demand past the cap; the end trailer remains the integrity
// check on the real counts.
const maxTracePrealloc = 4096

// dataVisitor folds validated records into a wholly-resident Data.
type dataVisitor struct{ d *Data }

func (v *dataVisitor) Meta(m Meta) error {
	v.d.Meta = m
	return nil
}

func (v *dataVisitor) VP(rec VPRecord) error {
	n := rec.Traces
	if n < 0 {
		n = 0
	}
	if n > maxTracePrealloc {
		n = maxTracePrealloc
	}
	v.d.VPs = append(v.d.VPs, rec.Addr)
	v.d.PerVP = append(v.d.PerVP, make([]*probe.Trace, 0, n))
	return nil
}

func (v *dataVisitor) Trace(rec TraceRecord) error {
	v.d.PerVP[rec.VPIndex] = append(v.d.PerVP[rec.VPIndex], rec.Trace)
	return nil
}

func (v *dataVisitor) Fingerprint(rec FingerprintRecord) error {
	switch rec.Source {
	case SourceSNMP:
		v.d.SNMP[rec.Addr] = rec.Vendor
	case SourceTTL:
		v.d.TTL[rec.Addr] = rec.Vendor
	}
	return nil
}

func (v *dataVisitor) AliasSet(rec AliasSetRecord) error {
	v.d.Aliases = append(v.d.Aliases, rec.Addrs)
	return nil
}

func (v *dataVisitor) Border(rec BorderRecord) error {
	v.d.Borders[rec.Addr] = rec.ASN
	return nil
}

func (v *dataVisitor) SREnabled(rec SREnabledRecord) error {
	v.d.SREnabled = append(v.d.SREnabled, rec.Addr)
	return nil
}

func (v *dataVisitor) Degraded(rec Degraded) error {
	v.d.Degraded = &rec
	return nil
}

func decode(body []byte, into any) error {
	if err := json.Unmarshal(body, into); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// WriteFile writes the campaign to path atomically: a temp file in the
// same directory, fsync'd and renamed into place, so an interrupted writer
// never leaves a file that parses as complete.
func WriteFile(path string, d *Data) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".arest-tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := WriteData(tmp, d); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile loads one archive shard from disk.
func ReadFile(path string) (*Data, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadData(bufio.NewReader(f))
}
