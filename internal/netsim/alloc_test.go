package netsim

import (
	"net/netip"
	"testing"

	"arest/internal/mpls"
	"arest/internal/pkt"
	"arest/internal/testrace"
)

// Allocation budgets for the hop-forward path: one scenario per
// forwarding, reply and drop branch of Send, each built on the topologies
// the behavioural tests of this package use. A reply costs its wire, the
// one allocation a Send makes, because the caller owns it; a drop costs
// nothing. Delivery comes back by value, the destination is resolved from
// the exact-address index Compute built, and every stack, quote and
// message under construction lives in the pooled sendScratch.
//
// The budgets are that steady state: AllocsPerRun rounds the mean down,
// so a sendScratch the pool fails to recycle during a GC stays inside
// them, while a return to a heap Delivery, per-probe path recording,
// per-hop stack cloning or per-reply intermediate buffers trips them at
// once. Policy callbacks return prebuilt segment lists, so the budgets
// count forwarding and nothing of the test's own.

// dropped marks a scenario whose probe draws no reply.
const dropped = -1

// sendCase is one Send scenario: setup builds the network and returns it
// with the probe's source and wire, and reply is the ICMP type the probing
// host receives, or dropped.
type sendCase struct {
	name  string
	setup func(t *testing.T) (*Network, netip.Addr, []byte)
	reply int
	// record has the scenario run through send with a path to fill, the
	// form the path-checking tests use.
	record bool
}

// rawProbe builds an IPv4 probe carrying payload under protocol proto.
func rawProbe(src, dst netip.Addr, ttl, proto uint8, payload []byte) []byte {
	b, err := (&pkt.IPv4{TTL: ttl, Protocol: proto, ID: 11, Src: src, Dst: dst, Payload: payload}).Marshal()
	if err != nil {
		panic(err)
	}
	return b
}

// echoReplyProbe builds an echo reply addressed to dst, which no router or
// host answers.
func echoReplyProbe(src, dst netip.Addr) []byte {
	m, err := (&pkt.ICMP{Type: pkt.ICMPEchoReply, ID: 5, Seq: 1, Body: []byte("ping")}).Marshal()
	if err != nil {
		panic(err)
	}
	return rawProbe(src, dst, 64, pkt.ProtoICMP, m)
}

// tcpProbe builds a TCP-protocol probe, which the simulator forwards but
// never answers.
func tcpProbe(src, dst netip.Addr) []byte {
	return rawProbe(src, dst, 64, pkt.ProtoTCP, make([]byte, 20))
}

// attachVP attaches a second vantage point behind r and returns it.
func (c *chain) attachVP(r *Router) netip.Addr {
	vp := a("172.16.9.10")
	c.net.AddHost(vp, r.ID)
	c.net.Compute()
	return vp
}

// overrideToIsolated isolates a router, then installs static FIB entries
// at gw, pe1 and p1 that carry probes for its host to it.
func (c *chain) overrideToIsolated() (*Router, netip.Addr) {
	x, hx := c.isolate()
	c.net.SetNextHopOverride(c.gw.ID, x.ID, c.pe1.ID)
	c.net.SetNextHopOverride(c.pe1.ID, x.ID, c.ps[0].ID)
	c.net.SetNextHopOverride(c.ps[0].ID, x.ID, x.ID)
	return x, hx
}

// isolate adds an SR router to the chain's AS with no link at all, and a
// host behind it: an owner no shortest path reaches.
func (c *chain) isolate() (*Router, netip.Addr) {
	x := c.net.AddRouter(RouterConfig{Name: "x", ASN: 100, Vendor: mpls.VendorCisco,
		Profile: DefaultProfile(mpls.VendorCisco), SREnabled: true, Mode: ModeSR})
	hx := a("100.9.0.1")
	c.net.AddHost(hx, x.ID)
	c.net.Compute()
	return x, hx
}

// ldpChain is the canonical chain running classic MPLS only.
func ldpChain(t *testing.T) *chain {
	return buildChain(t, withMode(ModeLDP), withPlanes(false, true))
}

func sendCases() []sendCase {
	type n = *Network
	type addr = netip.Addr
	return []sendCase{
		// SR chain: replies from routers and from the target host.
		{name: "sr: time exceeded mid-LSP with the RFC 4950 quote", reply: pkt.ICMPTimeExceeded,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				return c.net, c.vp, udpProbe(c.vp, c.target, 4, 33434) // expires at an interior P router
			}},
		{name: "sr: port unreachable from the target host", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "sr: port unreachable from a router loopback", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				return c.net, c.vp, udpProbe(c.vp, c.ps[1].Loopback, 64, 33434)
			}},
		{name: "echo reply from a router interface", reply: pkt.ICMPEchoReply,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				p2Iface, _ := c.ps[1].InterfaceTo(c.ps[0].ID)
				return c.net, c.vp, echoProbe(c.vp, p2Iface, 64, 77)
			}},
		{name: "echo reply from the target host", reply: pkt.ICMPEchoReply,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				return c.net, c.vp, echoProbe(c.vp, c.target, 64, 77)
			}},
		{name: "routed prefix: port unreachable from the loopback", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				c.net.AdvertisePrefix(c.pe2.ID, netip.MustParsePrefix("100.2.0.0/24"))
				c.net.Compute()
				return c.net, c.vp, udpProbe(c.vp, a("100.2.0.5"), 64, 33434)
			}},
		{name: "routed prefix: echo reply from the loopback", reply: pkt.ICMPEchoReply,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				c.net.AdvertisePrefix(c.pe2.ID, netip.MustParsePrefix("100.2.0.0/24"))
				c.net.Compute()
				return c.net, c.vp, echoProbe(c.vp, a("100.2.0.5"), 64, 77)
			}},
		{name: "unrouted destination", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				return c.net, c.vp, udpProbe(c.vp, a("203.0.113.99"), 12, 33434)
			}},
		{name: "TCP probe to a router", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				return c.net, c.vp, tcpProbe(c.vp, c.ps[1].Loopback)
			}},
		{name: "TCP probe to the target host", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				return c.net, c.vp, tcpProbe(c.vp, c.target)
			}},
		{name: "echo reply sent to a router", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				return c.net, c.vp, echoReplyProbe(c.vp, c.ps[1].Loopback)
			}},
		{name: "echo reply sent to the target host", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				return c.net, c.vp, echoReplyProbe(c.vp, c.target)
			}},

		// Routers that stay silent, lose their replies, or drop pings.
		{name: "silent router: time exceeded", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				c.ps[0].Profile.RespondsICMP = false
				return c.net, c.vp, udpProbe(c.vp, c.target, 3, 33434)
			}},
		{name: "silent router: port unreachable", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				c.ps[0].Profile.RespondsICMP = false
				return c.net, c.vp, udpProbe(c.vp, c.ps[0].Loopback, 64, 33434)
			}},
		{name: "rate-limited router: time exceeded", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				c.ps[0].Profile.ICMPLossProb = 1
				return c.net, c.vp, udpProbe(c.vp, c.target, 3, 33434)
			}},
		{name: "rate-limited router: port unreachable", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				c.ps[0].Profile.ICMPLossProb = 1
				return c.net, c.vp, udpProbe(c.vp, c.ps[0].Loopback, 64, 33434)
			}},
		{name: "router that drops pings", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				c.ps[1].Profile.RespondsEcho = false
				p2Iface, _ := c.ps[1].InterfaceTo(c.ps[0].ID)
				return c.net, c.vp, echoProbe(c.vp, p2Iface, 64, 78)
			}},

		// Classic MPLS.
		{name: "ldp: swap mid-LSP", reply: pkt.ICMPTimeExceeded,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChain(t)
				return c.net, c.vp, udpProbe(c.vp, c.target, 4, 33434)
			}},
		{name: "ldp: penultimate-hop popping", reply: pkt.ICMPTimeExceeded,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChain(t)
				return c.net, c.vp, udpProbe(c.vp, c.target, uint8(c.pathLen), 33434) // expires at pe2
			}},
		{name: "ldp: implicit null to an adjacent egress", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChain(t)
				return c.net, c.vp, udpProbe(c.vp, c.ps[0].Loopback, 64, 33434)
			}},
		{name: "ldp: explicit-null egress", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChainWith(t, func(n *Network, pe2 *Router) { pe2.Profile.ExplicitNull = true })
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "ldp: explicit null pushed toward an adjacent egress", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChainWith(t, func(n *Network, pe2 *Router) { pe2.Profile.ExplicitNull = true })
				vp := c.attachVP(c.ps[2])
				return c.net, vp, udpProbe(vp, c.target, 64, 33434)
			}},
		{name: "ldp: entropy labels", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChainWith(t, func(n *Network, pe2 *Router) {
					n.EntropyPolicy = func(*Router, RouterID, netip.Addr, uint64) bool { return true }
				})
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "ldp: entropy policy declines", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChainWith(t, func(n *Network, pe2 *Router) {
					n.EntropyPolicy = func(*Router, RouterID, netip.Addr, uint64) bool { return false }
				})
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "ldp: inner service label from the stack policy", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChainWith(t, func(n *Network, pe2 *Router) {
					vpn, id := n.AllocateServiceSID(pe2, "vpn"), pe2.ID
					n.LDPStackPolicy = func(_ *Router, e RouterID, _ netip.Addr) (uint32, bool) { return vpn, e == id }
				})
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		// A link failure leaves p1's binding for z behind. A stack policy
		// pushing that label toward p1 reaches a FEC p1 can no longer route.
		{name: "ldp: label of a FEC a link failure cut off", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				var z *Router
				c := ldpChainWith(t, func(n *Network, pe2 *Router) {
					z = n.AddRouter(RouterConfig{Name: "z", ASN: 100, Vendor: mpls.VendorCisco,
						Profile: DefaultProfile(mpls.VendorCisco), LDPEnabled: true, Mode: ModeLDP})
					n.Connect(pe2.ID, z.ID, 10)
				})
				p1 := c.ps[0]
				stale, ok := p1.LDPLabel(z.ID)
				if !ok {
					t.Fatal("p1 holds no binding for z")
				}
				c.net.SetLinkState(c.pe2.ID, z.ID, false)
				c.net.LDPStackPolicy = func(_ *Router, e RouterID, _ netip.Addr) (uint32, bool) { return stale, e == p1.ID }
				c.net.Compute()
				return c.net, c.vp, udpProbe(c.vp, p1.Loopback, 64, 33434)
			}},

		// Pipe model and SR policies.
		{name: "pipe model: the tunnel hides its hops", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t, withPropagate(false))
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "sr: service SID under the node SID", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				segs := SegmentList{{Node: c.pe2.ID}, {Service: true, ServiceLabel: c.net.AllocateServiceSID(c.pe2, "fw-chain")}}
				c.net.SRPolicy = func(*Router, RouterID, netip.Addr, uint64) SegmentList { return segs }
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "sr: service SID on top is unknown to the next hop", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				segs := SegmentList{{Service: true, ServiceLabel: c.net.AllocateServiceSID(c.pe2, "fw-chain")}, {Node: c.pe2.ID}}
				c.net.SRPolicy = func(*Router, RouterID, netip.Addr, uint64) SegmentList { return segs }
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "sr: node SID of a router no path reaches", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				x, _ := c.isolate()
				segs := SegmentList{{Node: c.ps[0].ID}, {Node: x.ID}}
				c.net.SRPolicy = func(*Router, RouterID, netip.Addr, uint64) SegmentList { return segs }
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "sr: adjacency SID steering", reply: pkt.ICMPDestUnreachable, record: true,
			setup: func(t *testing.T) (n, addr, []byte) {
				// TestAdjacencySIDSteering's square: s-a-d and s-b-d, a-d
				// expensive, and a policy crossing it over a's adjacency SID.
				n := New(3)
				mk := func(name string) *Router {
					return n.AddRouter(RouterConfig{Name: name, ASN: 1, Vendor: mpls.VendorCisco,
						Profile: DefaultProfile(mpls.VendorCisco), SREnabled: true, Mode: ModeSR})
				}
				s, ra, rb, d := mk("s"), mk("a"), mk("b"), mk("d")
				n.Connect(s.ID, ra.ID, 10)
				n.Connect(s.ID, rb.ID, 10)
				n.Connect(ra.ID, d.ID, 100)
				n.Connect(rb.ID, d.ID, 10)
				vp, tgt := a("172.16.0.1"), a("100.1.0.99")
				n.AddHost(vp, s.ID)
				n.AddHost(tgt, d.ID)
				segs := SegmentList{{Node: ra.ID}, {From: ra.ID, To: d.ID, Adj: true}, {Node: d.ID}}
				n.SRPolicy = func(*Router, RouterID, netip.Addr, uint64) SegmentList { return segs }
				n.Compute()
				return n, vp, udpProbe(vp, tgt, 32, 33434)
			}},
		{name: "sr: adjacency SID over a dead link", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				n, vp, tgt, _, ra, _, d := resilienceNet(t)
				segs := SegmentList{{Node: ra.ID}, {From: ra.ID, To: d.ID, Adj: true}, {Node: d.ID}}
				n.SRPolicy = func(*Router, RouterID, netip.Addr, uint64) SegmentList { return segs }
				n.SetLinkState(ra.ID, d.ID, false)
				n.Compute()
				return n, vp, udpProbe(vp, tgt, 32, 33434)
			}},

		// SR and LDP interworking, and ingresses whose mode and planes
		// disagree.
		{name: "sr→ldp: border swaps to the LDP label", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				iw := buildInterwork(t, true)
				return iw.net, iw.vp, udpProbe(iw.vp, iw.target, 64, 33434)
			}},
		{name: "sr→ldp: border pops toward the adjacent LDP egress", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				iw := buildInterwork(t, true)
				return iw.net, iw.vp, udpProbe(iw.vp, iw.l1.Loopback, 64, 33434)
			}},
		{name: "sr→ldp without a mapping server: the border pushes LDP", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				iw := buildInterwork(t, false)
				return iw.net, iw.vp, udpProbe(iw.vp, iw.target, 64, 33434)
			}},
		{name: "ldp→sr: border swaps to the node SID", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				iw := buildInterwork(t, false)
				vp2 := a("172.16.2.10")
				gw2 := iw.net.AddRouter(RouterConfig{Name: "gw2", ASN: 65001, Vendor: mpls.VendorLinux,
					Profile: DefaultProfile(mpls.VendorLinux), Mode: ModeIP})
				iw.net.Connect(gw2.ID, iw.pe2.ID, 10)
				iw.net.AddHost(vp2, gw2.ID)
				target2 := a("100.1.1.40")
				iw.net.AddHost(target2, iw.pe1.ID)
				iw.net.Compute()
				return iw.net, vp2, udpProbe(vp2, target2, 64, 33434)
			}},
		{name: "ldp→sr: an LDP ingress facing a pure-SR router", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				c.pe1.SREnabled, c.pe1.LDPEnabled, c.pe1.Mode = false, true, ModeLDP
				c.net.Compute()
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "SR-mode ingress running only LDP", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t, withMode(ModeSR), withPlanes(false, true))
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "LDP-mode ingress running only SR", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t, withMode(ModeLDP), withPlanes(true, false))
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},

		// LSPs broken by a router that cannot continue them.
		{name: "sr: LSR facing a router without SR or LDP", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				c.ps[1].SREnabled = false
				c.net.Compute()
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "ldp: LSR facing a router without SR or LDP", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChain(t)
				c.ps[1].LDPEnabled = false
				c.net.Compute()
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "ldp: ingress facing a router without SR or LDP", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChain(t)
				c.ps[1].LDPEnabled = false
				vp := c.attachVP(c.ps[0])
				return c.net, vp, udpProbe(vp, c.target, 64, 33434)
			}},
		{name: "ldp: LSR facing a router of another AS", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChainWith(t, foreignP2)
				return c.net, c.vp, udpProbe(c.vp, c.target, 64, 33434)
			}},
		{name: "ldp: ingress facing a router of another AS", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChainWith(t, foreignP2)
				vp := c.attachVP(c.ps[0])
				return c.net, vp, udpProbe(vp, c.target, 64, 33434)
			}},

		// Paths longer than a reply's initial TTL: the reply leaves with
		// TTL 1.
		{name: "long path: time exceeded", reply: pkt.ICMPTimeExceeded,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := longLinuxChain(t)
				return c.net, c.vp, udpProbe(c.vp, c.target, 70, 33434)
			}},
		{name: "long path: echo reply", reply: pkt.ICMPEchoReply,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := longLinuxChain(t)
				return c.net, c.vp, echoProbe(c.vp, c.pe2.Loopback, 255, 77)
			}},
		{name: "long path: host reply", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := longLinuxChain(t)
				return c.net, c.vp, udpProbe(c.vp, c.target, 255, 33434)
			}},

		// Owners only static FIB entries reach, and forwarding loops.
		{name: "owner no path reaches", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				_, hx := c.isolate()
				return c.net, c.vp, udpProbe(c.vp, hx, 64, 33434)
			}},
		// Overrides carry the probe to x, which no shortest path reaches,
		// so no ingress on the way pushes a label: under SR, pe1's policy
		// leads with a service SID toward x. x answers over no return path.
		{name: "ldp: owner only FIB overrides reach", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := ldpChain(t)
				_, hx := c.overrideToIsolated()
				return c.net, c.vp, udpProbe(c.vp, hx, 64, 33434)
			}},
		{name: "sr: owner only FIB overrides reach", reply: pkt.ICMPDestUnreachable,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t)
				x, hx := c.overrideToIsolated()
				segs := SegmentList{{Service: true, ServiceLabel: c.net.AllocateServiceSID(x, "svc")}, {Node: x.ID}}
				pe1 := c.pe1.ID
				c.net.SRPolicy = func(ing *Router, _ RouterID, _ netip.Addr, _ uint64) SegmentList {
					if ing.ID == pe1 {
						return segs
					}
					return nil
				}
				return c.net, c.vp, udpProbe(c.vp, hx, 64, 33434)
			}},
		// pe1 steers the target's traffic to p8 over a pipe-model SR
		// policy, and p8's static entry sends it back to pe1: every lap
		// costs 2 IP TTL and 9 hops, so the probe outlives maxSteps.
		{name: "forwarding loop through a pipe-model policy", reply: dropped,
			setup: func(t *testing.T) (n, addr, []byte) {
				c := buildChain(t, withPropagate(false), withInterior(8))
				p8 := c.ps[7]
				p8.Mode = ModeIP
				segs := SegmentList{{Node: p8.ID}}
				pe1 := c.pe1.ID
				c.net.SRPolicy = func(ing *Router, _ RouterID, _ netip.Addr, _ uint64) SegmentList {
					if ing.ID == pe1 {
						return segs
					}
					return nil
				}
				c.net.SetNextHopOverride(p8.ID, c.pe2.ID, pe1)
				return c.net, c.vp, udpProbe(c.vp, c.target, 255, 33434)
			}},
	}
}

// foreignP2 moves ldpChainWith's p2 into another AS before the control
// planes run, so it holds no LDP binding for the chain's FECs.
func foreignP2(n *Network, _ *Router) {
	n.Router(3).ASN = 200 // gw, pe1, p1, p2
}

// longLinuxChain is a plain-IP chain of 70 interior Linux routers, whose
// replies start at TTL 64.
func longLinuxChain(t *testing.T) *chain {
	return buildChain(t, withMode(ModeIP), withPlanes(false, false), withVendor(mpls.VendorLinux), withInterior(70))
}

func TestAllocBudgetSend(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	for _, c := range sendCases() {
		t.Run(c.name, func(t *testing.T) {
			n, src, wire := c.setup(t)
			path := make([]RouterID, 0, maxSteps)
			send := func() []byte {
				var d Delivery
				var err error
				if c.record {
					path = path[:0]
					d, err = n.send(src, wire, &path)
				} else {
					d, err = n.Send(src, wire)
				}
				if err != nil {
					t.Fatal(err)
				}
				return d.Reply
			}
			got := dropped
			if h := parseReply(t, send()); h != nil {
				got = int(h.icmpType)
			}
			if got != c.reply {
				t.Fatalf("reply type %d, want %d", got, c.reply)
			}
			budget := 0.0
			if c.reply != dropped {
				budget = 1
			}
			if allocs := testing.AllocsPerRun(200, func() { send() }); allocs > budget {
				t.Errorf("Send: %.1f allocs/op, budget %.0f", allocs, budget)
			}
		})
	}
}
