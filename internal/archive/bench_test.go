package archive

import (
	"bytes"
	"io"
	"net/netip"
	"testing"

	"arest/internal/mpls"
	"arest/internal/probe"
)

// benchData builds a campaign-sized archive deterministically: 8 VPs x 64
// traces x 16 hops with MPLS stacks, plus annotation records — roughly one
// mid-size AS from the Table 5 catalogue. It declares the current writer
// format (v3); benchDataV2 re-declares it as v2.
func benchData() *Data {
	d := fixtureData()
	d.VPs = nil
	d.PerVP = nil
	for vp := 0; vp < 8; vp++ {
		vpAddr := netip.AddrFrom4([4]byte{172, 16, byte(vp), 1})
		d.VPs = append(d.VPs, vpAddr)
		traces := make([]*probe.Trace, 0, 64)
		for i := 0; i < 64; i++ {
			tr := &probe.Trace{
				VP:     vpAddr,
				Dst:    netip.AddrFrom4([4]byte{100, 1, byte(vp), byte(i)}),
				FlowID: uint16(i % 4),
				Halt:   probe.HaltReached,
			}
			for ttl := 1; ttl <= 16; ttl++ {
				tr.Hops = append(tr.Hops, probe.Hop{
					TTL: ttl, Addr: netip.AddrFrom4([4]byte{10, byte(vp), byte(i), byte(ttl)}),
					RTT: float64(ttl) * 1.5, ICMPType: 11, ReplyTTL: uint8(255 - ttl), QTTL: 1,
					Stack: mpls.Stack{{Label: uint32(16000 + ttl), TTL: 1, S: true}},
				})
			}
			traces = append(traces, tr)
		}
		d.PerVP = append(d.PerVP, traces)
	}
	return d
}

// replayMixData builds an archive with the record mix of one AS of the
// seed-1 replay shards: 16 VPs, 50 fingerprints, 130 borders, 120
// SR-enabled interfaces and 1,152 traces of 6 to 12 hops, labeled inside
// the AS. benchData carries only the fixture's side records, so this is
// the archive that shows what decoding side records costs a replay.
func replayMixData() *Data {
	d := fixtureData()
	d.Meta.NumVPs = 16
	d.VPs, d.PerVP, d.Aliases, d.SREnabled = nil, nil, nil, nil
	d.SNMP = map[netip.Addr]mpls.Vendor{}
	d.TTL = map[netip.Addr]mpls.Vendor{}
	d.Borders = map[netip.Addr]int{}
	iface := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)}) }
	for i := 0; i < 130; i++ {
		d.Borders[iface(i)] = 293 + i%3
	}
	for i := 0; i < 120; i++ {
		d.SREnabled = append(d.SREnabled, iface(i))
	}
	for i := 0; i < 20; i++ {
		d.SNMP[iface(3*i)] = mpls.VendorCisco
	}
	for i := 0; i < 30; i++ {
		d.TTL[iface(2*i+1)] = []mpls.Vendor{mpls.VendorJuniper, mpls.VendorCiscoHuawei}[i%2]
	}
	for vp := 0; vp < 16; vp++ {
		vpAddr := netip.AddrFrom4([4]byte{172, 16, byte(vp), 1})
		d.VPs = append(d.VPs, vpAddr)
		traces := make([]*probe.Trace, 72)
		for i := range traces {
			tr := &probe.Trace{
				VP:     vpAddr,
				Dst:    netip.AddrFrom4([4]byte{100, 2, byte(vp), byte(i)}),
				FlowID: uint16(i % 4),
				Halt:   probe.HaltReached,
			}
			n := 6 + (vp+i)%7
			for ttl := 1; ttl <= n; ttl++ {
				h := probe.Hop{
					TTL: ttl, Addr: iface((7*vp + 3*i + 11*ttl) % 130),
					RTT: float64(ttl) * 1.5, ICMPType: 11, ReplyTTL: uint8(255 - ttl), QTTL: 1,
				}
				if ttl > 2 && ttl < n-1 {
					h.Stack = mpls.Stack{{Label: uint32(16000 + ttl), TTL: 1, S: true}}
				}
				tr.Hops = append(tr.Hops, h)
			}
			traces[i] = tr
		}
		d.PerVP = append(d.PerVP, traces)
	}
	return d
}

func benchDataV2() *Data {
	d := benchData()
	d.Meta.Format = FormatV2
	return d
}

func benchWriteData(b *testing.B, d *Data) {
	var buf bytes.Buffer
	if err := WriteData(&buf, d); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportMetric(float64(buf.Len()), "bytes/archive")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteData(io.Discard, d); err != nil {
			b.Fatal(err)
		}
	}
}

func benchReadData(b *testing.B, d *Data) {
	var buf bytes.Buffer
	if err := WriteData(&buf, d); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadData(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteData(b *testing.B)   { benchWriteData(b, benchDataV2()) }
func BenchmarkWriteDataV3(b *testing.B) { benchWriteData(b, benchData()) }
func BenchmarkReadData(b *testing.B)    { benchReadData(b, benchDataV2()) }
func BenchmarkReadDataV3(b *testing.B)  { benchReadData(b, benchData()) }

// BenchmarkReadDataReplayMix reads an archive with one replay shard's mix
// of side records and traces.
func BenchmarkReadDataReplayMix(b *testing.B) { benchReadData(b, replayMixData()) }

func BenchmarkReaderNext(b *testing.B) {
	// Framing-layer throughput without the decode of the payloads.
	var buf bytes.Buffer
	if err := WriteData(&buf, benchDataV2()); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			typ, _, err := ar.Next()
			if err != nil {
				b.Fatal(err)
			}
			if typ == TypeEnd {
				break
			}
		}
	}
}
