// Package fingerprint assigns hardware vendors to router interfaces using
// the two techniques of the paper: TTL-based signatures (Vanaubel et al.)
// inferred from reply TTLs, and an SNMPv3-style dataset (Albakour et al.).
//
// TTL signatures are the pair <initial TTL of time-exceeded, initial TTL of
// echo-reply>. Cisco and Huawei share <255,255> and are indistinguishable:
// the TTL technique therefore yields the VendorCiscoHuawei ambiguity class,
// whose SR label matching is restricted to the intersection of the two
// vendors' SRGBs. SNMPv3 identification is exact and takes precedence.
package fingerprint

import (
	"context"
	"net/netip"
	"sort"

	"arest/internal/mpls"
	"arest/internal/netsim"
	"arest/internal/obs"
	"arest/internal/par"
	"arest/internal/probe"
)

// Source records which technique produced a vendor annotation.
type Source int

const (
	SourceNone Source = iota
	SourceTTL
	SourceSNMP
)

func (s Source) String() string {
	switch s {
	case SourceTTL:
		return "ttl"
	case SourceSNMP:
		return "snmpv3"
	default:
		return "none"
	}
}

// Result is one interface's vendor annotation.
type Result struct {
	Vendor mpls.Vendor
	Source Source
}

// Signature is a TTL fingerprint: the inferred initial TTLs of
// time-exceeded and echo-reply messages.
type Signature struct {
	TimeExceeded uint8
	EchoReply    uint8
}

// Classify maps a TTL signature to a vendor class.
func (s Signature) Classify() mpls.Vendor {
	switch s {
	case Signature{255, 255}:
		return mpls.VendorCiscoHuawei
	case Signature{255, 64}:
		return mpls.VendorJuniper
	case Signature{64, 255}:
		return mpls.VendorNokia
	default:
		// <64,64> collides across Arista, Linux, MikroTik and more:
		// unusable for vendor attribution.
		return mpls.VendorUnknown
	}
}

// Pinger issues echo requests; probe.Tracer implements it.
type Pinger interface {
	Ping(ctx context.Context, dst netip.Addr, id uint16) (replyTTL uint8, ok bool, err error)
}

// pingID derives a deterministic echo identifier from the pinged address,
// replacing the old map-iteration-order counter: the probe bytes sent to an
// interface no longer depend on which other interfaces are in the batch.
func pingID(a netip.Addr) uint16 {
	b := a.As4()
	v := uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return uint16(v ^ (v >> 31))
}

// CollectTTL builds TTL fingerprints for every responding hop in traces.
// The time-exceeded half comes from the trace replies themselves; the
// echo-reply half requires the interface to answer pings — interfaces that
// do not (e.g. the whole of ESnet in the paper's ground truth) stay
// unclassified. Pings fan out over at most workers goroutines (0 =
// GOMAXPROCS, 1 = sequential); each ping is independent, so the result is
// the same at any worker count. Cancelling ctx stops the fan-out at the
// next ping boundary and returns the cause with a nil map. reg (may be
// nil) receives "fingerprint" stage accounting; every recorded count is a
// pure function of the trace set, so the counters sit inside the
// determinism contract.
func CollectTTL(ctx context.Context, traces []*probe.Trace, pinger Pinger, workers int, reg *obs.Registry) (map[netip.Addr]mpls.Vendor, error) {
	teInit := make(map[netip.Addr]uint8)
	for _, tr := range traces {
		for i := range tr.Hops {
			h := &tr.Hops[i]
			if !h.Responded() {
				continue
			}
			if h.ICMPType != 11 { // only time-exceeded carries that half
				continue
			}
			if _, seen := teInit[h.Addr]; !seen {
				teInit[h.Addr] = probe.InferInitialTTL(h.ReplyTTL)
			}
		}
	}
	addrs := make([]netip.Addr, 0, len(teInit))
	for addr := range teInit {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	met := struct {
		candidates, pingNoReply, classified, ambiguousSig *obs.Counter
	}{
		candidates:   reg.Counter("fingerprint", "candidates"),
		pingNoReply:  reg.Counter("fingerprint", "ping_noreply"),
		classified:   reg.Counter("fingerprint", "classified"),
		ambiguousSig: reg.Counter("fingerprint", "ambiguous_sig"),
	}
	met.candidates.Add(uint64(len(addrs)))
	vendors := make([]mpls.Vendor, len(addrs))
	err := par.ForEach(ctx, par.Workers(workers), len(addrs), func(i int) {
		vendors[i] = mpls.VendorUnknown
		replyTTL, ok, err := pinger.Ping(ctx, addrs[i], pingID(addrs[i]))
		if err != nil || !ok {
			met.pingNoReply.Inc()
			return
		}
		sig := Signature{TimeExceeded: teInit[addrs[i]], EchoReply: probe.InferInitialTTL(replyTTL)}
		vendors[i] = sig.Classify()
		if vendors[i] == mpls.VendorUnknown {
			met.ambiguousSig.Inc()
		}
	})
	if err != nil {
		return nil, err
	}
	out := make(map[netip.Addr]mpls.Vendor)
	for i, addr := range addrs {
		if vendors[i] != mpls.VendorUnknown {
			out[addr] = vendors[i]
		}
	}
	met.classified.Add(uint64(len(out)))
	return out, nil
}

// SNMPDataset simulates the public SNMPv3 fingerprint dataset: interfaces
// of routers that expose SNMP appear with their exact vendor. Arista
// devices are absent, mirroring the dataset limitation the paper reports.
func SNMPDataset(n *netsim.Network) map[netip.Addr]mpls.Vendor {
	out := make(map[netip.Addr]mpls.Vendor)
	for _, r := range n.Routers() {
		if !r.Profile.SNMPOpen {
			continue
		}
		if r.Vendor == mpls.VendorArista {
			continue // not fingerprintable in the SNMPv3 dataset
		}
		for _, a := range r.Interfaces() {
			out[a] = r.Vendor
		}
	}
	return out
}

// Annotator merges the two techniques, SNMPv3 taking precedence when both
// disagree (paper Sec. 5).
type Annotator struct {
	// byAddr holds every annotated interface, SNMPv3 entries first, so a
	// hop costs one lookup whether or not SNMPv3 knows it.
	byAddr map[netip.Addr]Result
}

// NewAnnotator builds an annotator from the two datasets; either may be nil.
// It merges a snapshot of both, so changing a map after the call does not
// reach the annotator: every caller builds its maps before calling.
func NewAnnotator(snmp, ttl map[netip.Addr]mpls.Vendor) *Annotator {
	a := &Annotator{byAddr: make(map[netip.Addr]Result, len(snmp)+len(ttl))}
	for addr, v := range snmp {
		a.byAddr[addr] = Result{Vendor: v, Source: SourceSNMP}
	}
	for addr, v := range ttl {
		if _, dup := a.byAddr[addr]; !dup {
			a.byAddr[addr] = Result{Vendor: v, Source: SourceTTL}
		}
	}
	return a
}

// Vendor resolves the annotation for one interface.
func (a *Annotator) Vendor(ip netip.Addr) Result {
	if r, ok := a.byAddr[ip]; ok {
		return r
	}
	return Result{Vendor: mpls.VendorUnknown, Source: SourceNone}
}
