package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"arest/internal/mpls"
)

// Network is a simulated internetwork: routers (possibly spanning several
// ASes), point-to-point links, attached hosts, and the computed control
// planes (IGP shortest paths, LDP bindings, SR SIDs). It knows each
// address once: the call that makes an address writes its record into
// the address table, and the prefix table holds routed prefixes only, so
// Compute reads no address.
type Network struct {
	routers []*Router

	// addrs holds every router loopback and interface address and every
	// host address, keyed by its 32-bit value, with everything Send needs
	// to know about it as a destination. AddRouter, Connect, AddHost and
	// AdvertisePrefix of an IPv4 /32 write it; a later write for the same
	// address takes over its owner.
	addrs map[uint32]dstInfo
	// prefixes maps the advertised prefixes that are not a single IPv4
	// address, masked, to their owner router; prefixLens lists their
	// distinct lengths, longest first, for routeOwner's exact-match
	// lookups.
	prefixes   map[netip.Prefix]RouterID
	prefixLens []int

	// ases holds each AS's block of the address plan, by ASN.
	ases map[int]*asBlock

	// MappingServer enables SR↔LDP interworking: an SRMS advertises prefix
	// SIDs on behalf of LDP-only routers, giving them node-SID indexes.
	MappingServer bool
	// SRPolicy, when set, lets an ingress LER steer traffic over an
	// explicit segment list (traffic engineering, service SIDs). A nil
	// return falls back to a single node segment to the egress.
	SRPolicy func(ingress *Router, egress RouterID, dst netip.Addr, flow uint64) SegmentList
	// LDPStackPolicy, when set, lets a classic-MPLS ingress push a second
	// (service/VPN-style) label under the LDP transport label — the classic
	// source of depth-2 stacks outside Segment Routing. The returned label
	// must be a service SID of the egress (AllocateServiceSID).
	LDPStackPolicy func(ingress *Router, egress RouterID, dst netip.Addr) (uint32, bool)
	// EntropyPolicy, when set and returning true, makes classic-MPLS
	// ingresses append an RFC 6790 entropy label pair (ELI + EL) to the
	// stack — another Segment-Routing-free source of deep stacks.
	EntropyPolicy func(ingress *Router, egress RouterID, dst netip.Addr, flow uint64) bool

	seed int64

	// nhOverride holds static FIB entries (fault injection): (at, owner)
	// → forced next hop; see SetNextHopOverride.
	nhOverride map[[2]RouterID]RouterID
	// met holds the bound observability counters (zero value = no-op);
	// see Instrument.
	met simMetrics
	// sidOwner maps node-SID indexes back to routers.
	sidOwner []RouterID

	computed bool
	// dist holds the IGP distance of every (src, dst) pair at
	// src*stride+dst, -1 when unreachable, where stride is the number of
	// routers SPF ran on. nhSlab holds the ECMP next hops of every pair
	// back to back, as 4-byte router IDs: those of pair i are
	// nhSlab[nhOff[i]:nhOff[i+1]].
	stride int
	dist   []int32
	nhSlab []int32
	nhOff  []int32
}

// New creates an empty network. All stochastic choices (label pool draws,
// IP-ID strides) derive from seed.
func New(seed int64) *Network {
	return &Network{
		addrs:    make(map[uint32]dstInfo),
		prefixes: make(map[netip.Prefix]RouterID),
		ases:     make(map[int]*asBlock),
		seed:     seed,
	}
}

// idHash mixes the network seed with a router ID into a well-distributed
// 64-bit value (splitmix64 finalizer). Per-router derivation — instead of a
// shared rand.Rand stream — makes router parameters independent of the
// order in which other routers were added, and leaves the Network free of
// mutable randomness state.
func idHash(seed int64, id RouterID) uint64 {
	v := uint64(seed) ^ uint64(id)*0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// asBlock is one AS's block of the address plan, 10.<index>.0.0/16, with
// the loopbacks and interface addresses allocated from it so far.
type asBlock struct {
	index, loopbacks, interfaces uint32
}

// block returns asn's address block, giving an AS seen for the first time
// the next index.
func (n *Network) block(asn int) *asBlock {
	b, ok := n.ases[asn]
	if !ok {
		if len(n.ases) == 250 {
			panic("netsim: too many ASes for the addressing plan")
		}
		b = &asBlock{index: uint32(len(n.ases) + 1)}
		n.ases[asn] = b
	}
	return b
}

func u32ToAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// AddRouter creates a router, allocating its loopback from the AS block
// 10.<as-index>.0.0/16.
func (n *Network) AddRouter(cfg RouterConfig) *Router {
	as := n.block(cfg.ASN)
	as.loopbacks++
	if as.loopbacks > 999 {
		panic(fmt.Sprintf("netsim: more than 999 routers in AS %d", cfg.ASN))
	}
	lb := u32ToAddr(10<<24 | as.index<<16 | as.loopbacks)

	srgb, srlb := cfg.SRGB, mpls.LabelRange{}
	if srgb == (mpls.LabelRange{}) {
		srgb, srlb, _ = mpls.SRBlocks(cfg.Vendor)
	}
	id := RouterID(len(n.routers))
	h := idHash(n.seed, id)
	r := &Router{
		ID:         id,
		Name:       cfg.Name,
		ASN:        cfg.ASN,
		Vendor:     cfg.Vendor,
		Loopback:   lb,
		Profile:    cfg.Profile,
		SREnabled:  cfg.SREnabled,
		LDPEnabled: cfg.LDPEnabled,
		SRGB:       srgb,
		SRLB:       srlb,
		Mode:       cfg.Mode,
		nodeIndex:  -1,
		ipIDBase:   uint16(h),
		ipIDStride: uint16(1 + (h>>16)%8),
	}
	r.pool = mpls.NewPool(mpls.DynamicPool(cfg.Vendor), n.seed^int64(r.ID)*2654435761)
	if r.Name == "" {
		r.Name = fmt.Sprintf("r%d-as%d", r.ID, r.ASN)
	}
	n.routers = append(n.routers, r)
	n.ownAddr(lb, id, true)
	n.computed = false
	return r
}

// Router returns the router with the given ID.
func (n *Network) Router(id RouterID) *Router { return n.routers[int(id)] }

// Routers returns all routers, ordered by ID.
func (n *Network) Routers() []*Router { return n.routers }

// Connect links routers a and b with the given IGP weight, allocating a
// point-to-point interface address on each side from a's AS block.
func (n *Network) Connect(a, b RouterID, weight int) {
	ra, rb := n.routers[a], n.routers[b]
	if ra.link(b) != nil {
		panic(fmt.Sprintf("netsim: duplicate link %d-%d", a, b))
	}
	as := n.block(ra.ASN)
	as.interfaces += 2
	base := 10<<24 | as.index<<16 | 0x1000 + as.interfaces
	if base&0xffff >= 0xff00 {
		panic(fmt.Sprintf("netsim: interface space exhausted in AS %d", ra.ASN))
	}
	aAddr, bAddr := u32ToAddr(base), u32ToAddr(base+1)
	ra.links = append(ra.links, link{to: b, weight: weight, iface: aAddr})
	rb.links = append(rb.links, link{to: a, weight: weight, iface: bAddr})
	n.ownAddr(aAddr, a, false)
	n.ownAddr(bAddr, b, false)
	n.computed = false
}

// SetLinkState brings the a-b link down (up=false) or back up. The change
// takes effect at the next Compute, modeling IGP reconvergence; forwarding
// over an adjacency SID bound to a down link drops the packet immediately,
// as a real LSR would until protection kicks in.
func (n *Network) SetLinkState(a, b RouterID, up bool) {
	la, lb := n.routers[a].link(b), n.routers[b].link(a)
	if la == nil {
		panic(fmt.Sprintf("netsim: no link %d-%d", a, b))
	}
	la.down, lb.down = !up, !up
	n.computed = false
}

// Neighbors returns the IDs of routers adjacent to id, in Connect order.
func (n *Network) Neighbors(id RouterID) []RouterID {
	links := n.routers[id].links
	out := make([]RouterID, len(links))
	for i, l := range links {
		out[i] = l.to
	}
	return out
}

// AdvertisePrefix attaches a routed prefix to a router (e.g. a customer
// prefix behind an edge router). Probes to any address inside it are
// delivered at that router. The prefix is stored masked, so two spellings
// of one prefix (100.1.2.0/24, 100.1.2.7/24) are one entry and the later
// advertisement wins; an IPv4 /32 is an address, and its owner is the
// later of this advertisement and any host or router address made there.
// An invalid prefix is not stored. The prefix takes effect at the next
// Compute.
func (n *Network) AdvertisePrefix(id RouterID, p netip.Prefix) {
	switch {
	case p.Addr().Is4() && p.Bits() == 32:
		k := addrKey(p.Addr())
		n.addrs[k] = n.routeAddr(k, id)
	case p.IsValid():
		p = p.Masked()
		n.prefixes[p] = id
		if !slices.Contains(n.prefixLens, p.Bits()) {
			n.prefixLens = append(n.prefixLens, p.Bits())
			slices.SortFunc(n.prefixLens, func(a, b int) int { return b - a })
		}
	}
	n.computed = false
}

// AddHost attaches an end host (vantage point or target) to a gateway
// router, which then owns the host's address. The host is reachable after
// the next Compute. The simulator forwards IPv4 only, so a host address
// of any other kind is a bug in the caller and panics.
func (n *Network) AddHost(a netip.Addr, gw RouterID) *Host {
	if !a.Is4() {
		panic(fmt.Sprintf("netsim: host address %v is not IPv4", a))
	}
	h := &Host{Addr: a, Gateway: gw}
	k := addrKey(a)
	d := n.routeAddr(k, gw)
	d.host = h
	n.addrs[k] = d
	n.computed = false
	return h
}

// RouterByAddr returns the router owning a as one of its own interface or
// loopback addresses (not merely a routed prefix).
func (n *Network) RouterByAddr(a netip.Addr) (*Router, bool) {
	if d, ok := n.indexed(a); ok && d.router >= 0 {
		return n.routers[d.router], true
	}
	return nil, false
}

// dstInfo is what forwarding needs to know about a destination address.
// Send resolves it once per probe, so neither the per-hop loop, the
// ingress push decision nor reply construction probes a map for it.
type dstInfo struct {
	owner  RouterID // router the address is delivered at; -1: no route
	router RouterID // router whose own interface or loopback it is; -1: none
	host   *Host    // attached host with this address; nil: none
	// eligible reports that the address is a FEC an ingress label-switches
	// toward: loopbacks and routed (customer and host) addresses are,
	// bare interface addresses are not, because neither LDP nor SR binds
	// labels to point-to-point interface prefixes. This FEC granularity is
	// what lets TNT's DPR reveal invisible tunnel interiors by tracing
	// toward interface addresses.
	eligible bool
}

func addrKey(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// indexed returns a's record in the address table, if it has one.
func (n *Network) indexed(a netip.Addr) (dstInfo, bool) {
	if !a.Is4() {
		return dstInfo{}, false
	}
	d, ok := n.addrs[addrKey(a)]
	return d, ok
}

// ownAddr records a as an address of router id, which owns it. Only a
// loopback is a label-switched FEC. A host attached at a keeps its place.
func (n *Network) ownAddr(a netip.Addr, id RouterID, loopback bool) {
	k := addrKey(a)
	d := n.addrs[k]
	d.owner, d.router, d.eligible = id, id, loopback
	n.addrs[k] = d
}

// routeAddr returns the record of address k with its owner set to id: the
// record k has, or a new one of an address no router holds, which is
// label-switched.
func (n *Network) routeAddr(k uint32, id RouterID) dstInfo {
	d, ok := n.addrs[k]
	if !ok {
		d = dstInfo{router: -1, eligible: true}
	}
	d.owner = id
	return d
}

// resolve returns a's record in the address table and, for an address
// the table does not hold, one routed by the longest routed prefix
// covering it.
func (n *Network) resolve(a netip.Addr) dstInfo {
	if d, ok := n.indexed(a); ok {
		return d
	}
	return dstInfo{owner: n.routeOwner(a), router: -1, eligible: true}
}

// routeOwner returns the owner of the longest routed prefix covering a,
// or -1 when none does. It makes one exact-match lookup per routed prefix
// length, longest first.
func (n *Network) routeOwner(a netip.Addr) RouterID {
	for _, bits := range n.prefixLens {
		p, err := a.Prefix(bits)
		if err != nil {
			continue // a prefix of the other address family
		}
		if id, ok := n.prefixes[p]; ok {
			return id
		}
	}
	return -1
}

// Compute runs the control planes: IGP SPF, SR SID allocation, and LDP
// label distribution. It must be called after topology changes and before
// injecting traffic.
func (n *Network) Compute() {
	n.computeSPF()
	n.assignSIDs()
	n.distributeLDP()
	n.computed = true
}

// assignSIDs gives every SR-enabled router a node-SID index and allocates
// adjacency SIDs for its IGP links. With a mapping server, LDP-only routers
// also receive a (SRMS-advertised) node-SID index.
func (n *Network) assignSIDs() {
	idx := 0
	n.sidOwner = n.sidOwner[:0]
	for _, r := range n.routers {
		if r.SREnabled || (n.MappingServer && r.LDPEnabled) {
			r.nodeIndex = idx
			n.sidOwner = append(n.sidOwner, r.ID)
			idx++
		} else {
			r.nodeIndex = -1
		}
	}
	var order []int // one router's link indexes, by neighbor ID
	for _, r := range n.routers {
		if !r.SREnabled {
			continue
		}
		// Deterministic neighbor order for reproducible adjacency SIDs.
		order = order[:0]
		for i := range r.links {
			order = append(order, i)
		}
		sort.Slice(order, func(i, j int) bool { return r.links[order[i]].to < r.links[order[j]].to })
		for seq, i := range order {
			l := &r.links[i]
			switch {
			case r.SRLB.Size() > 0:
				l.adjSID = r.SRLB.Lo + uint32(seq)
				if l.adjSID > r.SRLB.Hi {
					panic(fmt.Sprintf("netsim: SRLB of %s exhausted", r.Name))
				}
			case l.adjSID == 0:
				// Juniper-style: adjacency SIDs from the dynamic pool,
				// drawn once per link.
				l.adjSID = r.pool.Draw(r.bound)
			}
			n.bind(r, l.adjSID, labelAdjSID, l.to)
		}
	}
}

// bind binds r's incoming label l to kind and target to. The table is
// made at the router's first binding, sized for an adjacency SID per link
// plus, if r binds LDP labels, one per router of its AS.
func (n *Network) bind(r *Router, l uint32, kind labelKind, to RouterID) {
	if r.labels == nil {
		size := len(r.links)
		if n.bindsLDP(r) {
			size += int(n.ases[r.ASN].loopbacks)
		}
		r.labels = make(map[uint32]binding, size)
	}
	r.labels[l] = binding{to: int32(to), kind: kind}
}

// distributeLDP makes every LDP-enabled router allocate a label from its
// dynamic pool for every reachable egress router FEC, mirroring per-prefix
// downstream-unsolicited LDP. SR border routers also generate LDP bindings
// that mirror the node SIDs they learned (LDP→SR interworking). A binding
// outlives reconvergence: a re-run keeps every label already advertised
// and draws only for FECs without one.
func (n *Network) distributeLDP() {
	for _, r := range n.routers {
		if !n.bindsLDP(r) {
			continue
		}
		if grow := len(n.routers) - len(r.ldpOut); grow > 0 {
			r.ldpOut = append(r.ldpOut, make([]uint32, grow)...)
		}
		dist := n.dist[int(r.ID)*n.stride:]
		for _, e := range n.routers {
			if e.ID == r.ID || e.ASN != r.ASN {
				continue
			}
			if dist[e.ID] < 0 || r.ldpOut[e.ID] != 0 {
				continue
			}
			l := r.pool.Draw(r.bound)
			n.bind(r, l, labelLDP, e.ID)
			r.ldpOut[e.ID] = l
		}
	}
}

// bindsLDP reports whether r binds LDP labels: it runs LDP, or it is a
// pure-SR router adjacent to an LDP-only neighbor (interworking).
func (n *Network) bindsLDP(r *Router) bool {
	if r.LDPEnabled || !r.SREnabled {
		return r.LDPEnabled
	}
	for _, l := range r.links {
		if o := n.routers[l.to]; o.LDPEnabled && !o.SREnabled {
			return true
		}
	}
	return false
}

// Dist returns the IGP hop distance between two routers, or -1 when
// disconnected.
func (n *Network) Dist(a, b RouterID) int {
	if !n.computed {
		panic("netsim: Compute not called")
	}
	return int(n.dist[int(a)*n.stride+int(b)])
}
