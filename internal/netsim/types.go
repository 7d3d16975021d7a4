// Package netsim is a deterministic simulator of IP/MPLS networks with
// Segment Routing (SR-MPLS) and LDP control planes. It forwards frames with
// genuine IP-TTL/LSE-TTL semantics (uniform and pipe models, ttl-propagate)
// and generates ICMP replies per router profile (RFC 4950 label-stack
// quoting on or off), so the four MPLS tunnel visibility classes of Donnet
// et al. — explicit, implicit, opaque, invisible — emerge from the
// mechanisms rather than being asserted.
//
// Vantage points and targets attach to edge routers as hosts; probes enter
// and replies leave the simulator as serialized IPv4 bytes, forcing the
// prober to run the same codec path a raw-socket tool would.
//
// # Concurrency model
//
// A Network has two phases. During construction (AddRouter, Connect,
// AddHost, Compute, policy assignment) it must be confined to one
// goroutine. After Compute returns, the control-plane state is read-only
// and Send may be called from any number of goroutines concurrently: the
// Network holds no caches, and its only mutable per-packet state is each
// router's IP-ID counter, an atomic packet count whose increments commute,
// so the counter state after any set of probes is independent of their
// interleaving. Policy callbacks (SRPolicy, LDPStackPolicy,
// EntropyPolicy) must be pure functions of their arguments for concurrent
// Sends to stay deterministic. Topology mutation (SetLinkState,
// AdvertisePrefix, ...) must not race with Send; re-run Compute
// afterwards.
package netsim

import (
	"net/netip"
	"sort"
	"sync/atomic"

	"arest/internal/mpls"
)

// RouterID identifies a router within a Network.
type RouterID int

// TunnelMode selects the intra-domain encapsulation an ingress LER applies
// to transit traffic.
type TunnelMode int

const (
	// ModeIP performs plain IP forwarding (no MPLS).
	ModeIP TunnelMode = iota
	// ModeLDP pushes LDP-learned labels (classic MPLS).
	ModeLDP
	// ModeSR pushes SR node-SID labels (SR-MPLS).
	ModeSR
)

func (m TunnelMode) String() string {
	switch m {
	case ModeIP:
		return "ip"
	case ModeLDP:
		return "ldp"
	case ModeSR:
		return "sr"
	default:
		return "?"
	}
}

// Profile captures the externally observable behaviour of a router that the
// measurement pipeline depends on.
type Profile struct {
	// RFC4950 controls whether time-exceeded messages quote the received
	// MPLS label stack (explicit/opaque tunnels need it).
	RFC4950 bool
	// TTLPropagate controls the ingress ttl-propagate knob: when true the
	// IP TTL is copied into the pushed LSE TTL (uniform model); when false
	// the LSE TTL is set to 255 and the tunnel hides its hops (pipe model).
	TTLPropagate bool
	// InitialTTLTimeExceeded and InitialTTLEchoReply are the initial TTL
	// values of generated ICMP messages; the pair is the router's
	// TTL-fingerprint signature (Vanaubel et al.).
	InitialTTLTimeExceeded uint8
	InitialTTLEchoReply    uint8
	// RespondsICMP false models silent routers (traceroute shows "*").
	RespondsICMP bool
	// RespondsEcho false models routers that drop pings; TTL-based
	// fingerprinting then lacks the echo-reply half of the signature and
	// cannot classify the router (the AS#46/ESnet situation).
	RespondsEcho bool
	// SNMPOpen true means the router appears in the SNMPv3 fingerprint
	// dataset with its exact vendor.
	SNMPOpen bool
	// ICMPLossProb is the probability that a generated ICMP reply is lost
	// (rate limiting, control-plane policers). Deterministic per probe:
	// retrying with a different IP-ID can succeed, exactly the behaviour
	// traceroute retries exploit.
	ICMPLossProb float64
	// ExplicitNull makes this router, as an LDP egress, advertise the
	// IPv4 explicit-null label (0) instead of implicit null: the
	// penultimate hop then swaps to label 0 rather than popping, and the
	// egress shows a reserved-label LSE in its quotes — a real traceroute
	// phenomenon AReST must not mistake for Segment Routing.
	ExplicitNull bool
}

// DefaultProfile returns the vendor's characteristic profile: initial-TTL
// signature pairs follow the network-fingerprinting literature, where Cisco
// and Huawei share <255,255> and are therefore indistinguishable by TTL.
func DefaultProfile(v mpls.Vendor) Profile {
	p := Profile{
		RFC4950:                true,
		TTLPropagate:           true,
		RespondsICMP:           true,
		RespondsEcho:           true,
		InitialTTLTimeExceeded: 255,
		InitialTTLEchoReply:    255,
	}
	switch v {
	case mpls.VendorCisco, mpls.VendorHuawei:
		// shared signature <255,255>
	case mpls.VendorJuniper:
		p.InitialTTLEchoReply = 64 // <255,64>
	case mpls.VendorNokia:
		p.InitialTTLTimeExceeded = 64 // <64,255>
	case mpls.VendorArista, mpls.VendorLinux, mpls.VendorMikroTik:
		p.InitialTTLTimeExceeded = 64
		p.InitialTTLEchoReply = 64 // <64,64>
	}
	return p
}

// RouterConfig describes a router to add to a Network.
type RouterConfig struct {
	Name   string
	ASN    int
	Vendor mpls.Vendor
	Profile
	// SREnabled programs the SR-MPLS control plane on this router.
	SREnabled bool
	// LDPEnabled programs LDP on this router.
	LDPEnabled bool
	// SRGB overrides the vendor default SRGB and SRLB (zero value keeps
	// both defaults).
	SRGB mpls.LabelRange
	// Mode is the encapsulation this router applies as ingress LER.
	Mode TunnelMode
}

// Router is a simulated router. Its link state is one slice, links, and
// its incoming-label state one table, labels; node SIDs need no table, as
// they follow from the SRGB.
type Router struct {
	ID       RouterID
	Name     string
	ASN      int
	Vendor   mpls.Vendor
	Loopback netip.Addr
	Profile  Profile

	SREnabled  bool
	LDPEnabled bool
	SRGB       mpls.LabelRange
	SRLB       mpls.LabelRange
	Mode       TunnelMode

	// nodeIndex is the SR node-SID index; -1 when the router has none.
	nodeIndex int

	// links holds one end per link, in Connect order.
	links []link
	// labels binds each incoming label the router allocated (adjacency
	// SID, LDP label or service SID) to its kind and target, and keeps
	// it across re-Computes. pool draws the dynamic ones among them,
	// skipping every label labels already holds.
	labels map[uint32]binding
	pool   *mpls.Pool
	ldpOut []uint32 // FEC (egress RouterID) -> label this router advertised; 0: none

	// ipIDBase and ipIDStride parameterize the router's shared IP-ID
	// counter (monotone, wrapping), the signal MIDAR-style alias
	// resolution keys on: packet k carries ipIDBase + k*ipIDStride. The
	// stride models background traffic through the shared counter.
	ipIDBase   uint16
	ipIDStride uint16
	// ipIDCount is the live packet count behind the counter. It is the
	// only router state Send mutates; atomic adds commute, keeping
	// concurrent Sends deterministic in aggregate.
	ipIDCount atomic.Uint32
}

// NodeIndex returns the router's SR node-SID index, or -1.
func (r *Router) NodeIndex() int { return r.nodeIndex }

// link is one end of a point-to-point link: the neighbor at the far end,
// the IGP weight, this router's interface address, the adjacency SID it
// bound for the link (0, a reserved label, for none) and whether the link
// is down.
type link struct {
	to     RouterID
	weight int
	iface  netip.Addr
	adjSID uint32
	down   bool
}

// link returns r's end of its link to neighbor nb, or nil.
func (r *Router) link(nb RouterID) *link {
	for i := range r.links {
		if r.links[i].to == nb {
			return &r.links[i]
		}
	}
	return nil
}

// binding is what an incoming label is bound to: the egress FEC of an LDP
// label, the neighbor of an adjacency SID, or the router itself for a
// service SID.
type binding struct {
	to   int32
	kind labelKind
}

// bound reports whether r has bound label l.
func (r *Router) bound(l uint32) bool {
	_, ok := r.labels[l]
	return ok
}

// InterfaceTo returns the router's interface address on the link to
// neighbor n, if such a link exists.
func (r *Router) InterfaceTo(n RouterID) (netip.Addr, bool) {
	if l := r.link(n); l != nil {
		return l.iface, true
	}
	return netip.Addr{}, false
}

// Interfaces returns all interface addresses of the router: the loopback
// first, then the link interfaces in ascending address order.
func (r *Router) Interfaces() []netip.Addr {
	out := make([]netip.Addr, 0, len(r.links)+1)
	out = append(out, r.Loopback)
	for _, l := range r.links {
		out = append(out, l.iface)
	}
	sort.Slice(out[1:], func(i, j int) bool { return out[1+i].Less(out[1+j]) })
	return out
}

// AdjacencySID returns the adjacency SID this router allocated for the IGP
// link to neighbor n.
func (r *Router) AdjacencySID(n RouterID) (uint32, bool) {
	if l := r.link(n); l != nil && l.adjSID != 0 {
		return l.adjSID, true
	}
	return 0, false
}

// LDPLabel returns the label this router advertised for the FEC of egress
// router e. No dynamic pool starts below label 16, so 0 marks a FEC
// without a binding.
func (r *Router) LDPLabel(e RouterID) (uint32, bool) {
	if e < 0 || int(e) >= len(r.ldpOut) || r.ldpOut[e] == 0 {
		return 0, false
	}
	return r.ldpOut[e], true
}

// Host is an end host attached to an edge router: a vantage point or a
// probing target.
type Host struct {
	Addr    netip.Addr
	Gateway RouterID
}
