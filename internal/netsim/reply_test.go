package netsim

import (
	"encoding/hex"
	"net/netip"
	"testing"

	"arest/internal/pkt"
)

// TestReplyBytesPinned pins the complete bytes of every kind of reply
// Send builds, on fresh chains (so each router's IP-ID counter is at its
// first reply). The readable fields are checked first; the hex then pins
// everything else: the quote, the RFC 4884 padding, the RFC 4950 object
// and both checksums.
//
// The chain's replies travel back over one hop from gw, four from p2
// (ps[1]) and six from pe2; the target host sits one hop behind pe2.
// Cisco and Linux routers start time-exceeded and echo replies at TTL 255
// and 64 respectively, and a host starts every reply at 64 with IP-ID 0.
func TestReplyBytesPinned(t *testing.T) {
	cases := []struct {
		name string
		// probe builds the chain's probe; the reply must come from src
		// with this TTL, IP-ID and ICMP type.
		probe func(c *chain) []byte
		src   func(c *chain) netip.Addr
		ttl   uint8
		id    uint16
		typ   uint8
		hex   string
	}{
		{
			name:  "time exceeded at the plain-IP gateway, no label stack",
			probe: func(c *chain) []byte { return udpProbe(c.vp, c.target, 1, 33434) },
			src:   func(c *chain) netip.Addr { return c.gw.Loopback },
			typ:   pkt.ICMPTimeExceeded,
			ttl:   63, id: 30245,
			hex: "45000045762500003f014f770a010001ac10000a0b0005560000000045000029" +
				"000100000111a994ac10000a64010014829a829a0015e82d70726f62652d7061" +
				"796c6f6164",
		},
		{
			name:  "time exceeded mid-LSP with an RFC 4950 stack",
			probe: func(c *chain) []byte { return udpProbe(c.vp, c.target, 4, 33434) },
			src:   func(c *chain) netip.Addr { return iface(c, 1, 0) },
			typ:   pkt.ICMPTimeExceeded,
			ttl:   251, id: 30187,
			hex: "450000a875eb0000fb0183480a021005ac10000a0b0005360020000045000029" +
				"000400000211a891ac10000a64010014829a829a0015e82d70726f62652d7061" +
				"796c6f6164000000000000000000000000000000000000000000000000000000" +
				"0000000000000000000000000000000000000000000000000000000000000000" +
				"0000000000000000000000000000000000000000000000000000000020009a0d" +
				"0008010103e84101",
		},
		{
			name:  "port unreachable from a router's own address",
			probe: func(c *chain) []byte { return udpProbe(c.vp, iface(c, 1, 0), 64, 33434) },
			src:   func(c *chain) netip.Addr { return iface(c, 1, 0) },
			typ:   pkt.ICMPDestUnreachable,
			ttl:   251, id: 30187,
			hex: "4500004575eb0000fb0183ab0a021005ac10000a0303c3440000000045000029" +
				"004000003d11b763ac10000a0a021005829a829a0015323c70726f62652d7061" +
				"796c6f6164",
		},
		{
			name: "port unreachable from a routed prefix, sourced from the loopback",
			probe: func(c *chain) []byte {
				c.net.AdvertisePrefix(c.pe2.ID, netip.MustParsePrefix("100.2.0.0/24"))
				c.net.Compute()
				return udpProbe(c.vp, a("100.2.0.5"), 64, 33434)
			},
			src: func(c *chain) netip.Addr { return c.pe2.Loopback },
			typ: pkt.ICMPDestUnreachable,
			ttl: 249, id: 26754,
			hex: "450000a868820000f901a2b10a020005ac10000a03030d250020000045000029" +
				"004000003e116c63ac10000a64020005829a829a0015e83b70726f62652d7061" +
				"796c6f6164000000000000000000000000000000000000000000000000000000" +
				"0000000000000000000000000000000000000000000000000000000000000000" +
				"00000000000000000000000000000000000000000000000000000000200099d3" +
				"0008010103e8413b",
		},
		{
			name:  "a router's echo reply",
			probe: func(c *chain) []byte { return echoProbe(c.vp, iface(c, 1, 0), 64, 77) },
			src:   func(c *chain) netip.Addr { return iface(c, 1, 0) },
			typ:   pkt.ICMPEchoReply,
			ttl:   251, id: 30187,
			hex: "4500002075eb0000fb0183d00a021005ac10000a000020e1004d000170696e67",
		},
		{
			name:  "the host's port unreachable",
			probe: func(c *chain) []byte { return udpProbe(c.vp, c.target, 64, 33434) },
			src:   func(c *chain) netip.Addr { return c.target },
			typ:   pkt.ICMPDestUnreachable,
			ttl:   57, id: 0,
			hex: "45000045000000003901718964010014ac10000a03030d530000000045000029" +
				"004000003a117055ac10000a64010014829a829a0015e82d70726f62652d7061" +
				"796c6f6164",
		},
		{
			name:  "the host's echo reply",
			probe: func(c *chain) []byte { return echoProbe(c.vp, c.target, 64, 77) },
			src:   func(c *chain) netip.Addr { return c.target },
			typ:   pkt.ICMPEchoReply,
			ttl:   57, id: 0,
			hex: "4500002000000000390171ae64010014ac10000a000020e1004d000170696e67",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := buildChain(t)
			d, err := c.net.Send(c.vp, tc.probe(c), nil)
			if err != nil {
				t.Fatal(err)
			}
			var ip pkt.IPv4
			var m pkt.ICMP
			if err := pkt.UnmarshalIPv4Into(&ip, d.Reply); err != nil {
				t.Fatalf("reply %x: %v", d.Reply, err)
			}
			if err := pkt.UnmarshalICMPInto(&m, ip.Payload); err != nil {
				t.Fatalf("reply %x: %v", d.Reply, err)
			}
			if src := tc.src(c); ip.Src != src || ip.Dst != c.vp || ip.TTL != tc.ttl || ip.ID != tc.id || m.Type != tc.typ {
				t.Errorf("reply %s -> %s ttl %d id %d type %d, want %s -> %s ttl %d id %d type %d",
					ip.Src, ip.Dst, ip.TTL, ip.ID, m.Type, src, c.vp, tc.ttl, tc.id, tc.typ)
			}
			if got := hex.EncodeToString(d.Reply); got != tc.hex {
				t.Errorf("reply bytes\n got %s\nwant %s", got, tc.hex)
			}
		})
	}
}

// iface returns the address of the chain's interior router ps[i] on its
// link toward ps[j].
func iface(c *chain, i, j int) netip.Addr {
	addr, ok := c.ps[i].InterfaceTo(c.ps[j].ID)
	if !ok {
		panic("no such link")
	}
	return addr
}
