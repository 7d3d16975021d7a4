//go:build linux

// The fixtures below marshal hand-built packets whose validity the test
// itself asserts; threading every impossible AppendMarshal error through
// t.Fatal would bury the exchange logic under scaffolding.
//
//arest:allow noerrdrop test fixtures marshal known-valid packets; a failure surfaces as the assertion mismatch the test exists to catch

package probe

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"arest/internal/pkt"
)

func TestMatchesProbe(t *testing.T) {
	src, dst := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("198.51.100.9")
	u := &pkt.UDP{SrcPort: 33434, DstPort: 33435, Payload: []byte("x")}
	ub, _ := u.AppendMarshal(nil, src, dst)
	probe := &pkt.IPv4{TTL: 3, ID: 777, Protocol: pkt.ProtoUDP, Src: src, Dst: dst, Payload: ub}

	// mkReply quotes the probe as a router saw it, with the given IP-ID
	// and source, cut to its first quoteLen bytes.
	mkReply := func(id uint16, qsrc netip.Addr, quoteLen int) []byte {
		q := *probe
		q.ID = id
		q.Src = qsrc
		qb, _ := q.AppendMarshal(nil)
		m := &pkt.ICMP{Type: pkt.ICMPTimeExceeded, Body: qb[:min(quoteLen, len(qb))]}
		mb, _ := m.AppendMarshal(nil)
		ip := &pkt.IPv4{TTL: 250, Protocol: pkt.ProtoICMP,
			Src: netip.MustParseAddr("203.0.113.5"), Dst: src, Payload: mb}
		b, _ := ip.AppendMarshal(nil)
		return b
	}
	if !matchesProbe(probe, mkReply(777, src, 1500)) {
		t.Error("matching time-exceeded rejected")
	}
	if !matchesProbe(probe, mkReply(777, src, pkt.IPv4HeaderLen+8)) {
		t.Error("matching time-exceeded with an RFC 792 minimum quote rejected")
	}
	if matchesProbe(probe, mkReply(777, src, pkt.IPv4HeaderLen-1)) {
		t.Error("quote shorter than an IPv4 header accepted")
	}
	if matchesProbe(probe, mkReply(778, src, 1500)) {
		t.Error("wrong IP-ID accepted")
	}
	if matchesProbe(probe, mkReply(777, netip.MustParseAddr("192.0.2.2"), 1500)) {
		t.Error("wrong quoted source accepted")
	}
	if matchesProbe(probe, []byte{1, 2, 3}) {
		t.Error("garbage accepted")
	}

	// Echo reply matching.
	em := &pkt.ICMP{Type: pkt.ICMPEchoRequest, ID: 42, Seq: 7, Body: []byte("ping")}
	emb, _ := em.AppendMarshal(nil)
	echoProbe := &pkt.IPv4{TTL: 64, Protocol: pkt.ProtoICMP, Src: src, Dst: dst, Payload: emb}
	rep := &pkt.ICMP{Type: pkt.ICMPEchoReply, ID: 42, Seq: 7, Body: []byte("ping")}
	repb, _ := rep.AppendMarshal(nil)
	rip := &pkt.IPv4{TTL: 60, Protocol: pkt.ProtoICMP, Src: dst, Dst: src, Payload: repb}
	ripb, _ := rip.AppendMarshal(nil)
	if !matchesProbe(echoProbe, ripb) {
		t.Error("matching echo reply rejected")
	}
	rep.ID = 43
	repb, _ = rep.AppendMarshal(nil)
	rip.Payload = repb
	ripb, _ = rip.AppendMarshal(nil)
	if matchesProbe(echoProbe, ripb) {
		t.Error("wrong echo ID accepted")
	}
}

func TestRawConnRequiresPrivileges(t *testing.T) {
	conn, err := NewRawConn(time.Second)
	if err != nil {
		t.Skipf("raw sockets unavailable here (expected without CAP_NET_RAW): %v", err)
	}
	defer conn.Close()
	if !rawAvailable() {
		t.Error("NewRawConn succeeded but rawAvailable is false")
	}
	// A probe to a documentation address must not error (timeout => nil).
	src := netip.MustParseAddr("127.0.0.1")
	u := &pkt.UDP{SrcPort: 33434, DstPort: 33435, Payload: []byte("x")}
	ub, _ := u.AppendMarshal(nil, src, netip.MustParseAddr("192.0.2.1"))
	ip := &pkt.IPv4{TTL: 1, ID: 1, Protocol: pkt.ProtoUDP, Src: src,
		Dst: netip.MustParseAddr("192.0.2.1"), Payload: ub}
	wire, _ := ip.AppendMarshal(nil)
	conn.Timeout = 200 * time.Millisecond
	if _, _, err := conn.Exchange(context.Background(), src, wire); err != nil {
		t.Logf("exchange returned error (environment-dependent): %v", err)
	}
}
