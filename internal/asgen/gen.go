package asgen

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"

	"arest/internal/mpls"
	"arest/internal/netsim"
)

// Deployment describes how a synthetic AS is configured. All probabilities
// are evaluated deterministically from the world seed.
type Deployment struct {
	// Routers is the topology size; ExtraLinkFrac adds redundancy links on
	// top of the random spanning tree.
	Routers       int
	ExtraLinkFrac float64

	// MPLS enables label switching at all; SRFrac is the fraction of MPLS
	// routers running SR-MPLS (1 = full SR, 0 = classic LDP).
	MPLS   bool
	SRFrac float64
	// Interworking splits the domain into an SR region and an LDP region
	// joined by dual-plane borders; MappingServer enables SR→LDP.
	Interworking  bool
	MappingServer bool

	// VendorWeights drives the per-router vendor draw.
	VendorWeights map[mpls.Vendor]int

	// Behaviour probabilities (per router, except TE/service per PE pair).
	PropagateProb    float64 // ttl-propagate on => uniform model
	RFC4950Prob      float64
	SNMPOpenProb     float64
	EchoProb         float64
	TEProb           float64 // 2-segment SR-TE stacks
	ServiceProb      float64 // service-SID (unshrinking) stacks
	ClassicStackProb float64 // classic-MPLS double stacks (VPN/RSVP-TE): the LSO source
	EntropyProb      float64 // RFC 6790 entropy-label pairs on classic LSPs
	ExplicitNullProb float64 // egresses advertising explicit null (label 0)
	ICMPLossProb     float64 // per-probe ICMP reply loss (rate limiting)

	// CustomSRGB, when non-zero, overrides every SR router's SRGB
	// (operators customizing ranges, Sec. 3: ~30%).
	CustomSRGB mpls.LabelRange
	// AlignSRGB configures one consistent SRGB across the whole domain,
	// as RFC 8402 recommends and nearly all real deployments do. When
	// false, each router keeps its vendor default — the rare misaligned
	// case the suffix-matching flag exists for.
	AlignSRGB bool
}

// defaultVendorWeights follows the survey's vendor market (Fig. 5a).
func defaultVendorWeights() map[mpls.Vendor]int {
	return map[mpls.Vendor]int{
		mpls.VendorCisco:   40,
		mpls.VendorJuniper: 25,
		mpls.VendorNokia:   12,
		mpls.VendorArista:  8,
		mpls.VendorLinux:   7,
		mpls.VendorHuawei:  8,
	}
}

// DeploymentFor derives a deployment from an AS's category and confirmation
// status, with per-AS overrides for the networks the paper singles out.
func DeploymentFor(rec Record, seed int64) Deployment {
	rng := rand.New(rand.NewSource(seed ^ int64(rec.ID)*7919))
	d := Deployment{
		ExtraLinkFrac: 0.25,
		VendorWeights: defaultVendorWeights(),
		PropagateProb: 0.8,
		RFC4950Prob:   0.85,
		SNMPOpenProb:  0.08,
		EchoProb:      0.25,
		// A minority of classic-MPLS deployments use entropy labels and
		// explicit null; both produce label observations AReST must not
		// misread as Segment Routing.
		EntropyProb:      0.05,
		ExplicitNullProb: 0.1,
		ICMPLossProb:     0.03,
	}
	// Topology size scales with the coverage the paper observed.
	d.Routers = 8 + int(math.Log2(float64(rec.IPsDiscovered)+2))*5
	if d.Routers > 80 {
		d.Routers = 80
	}
	switch rec.Category {
	case Stub:
		d.Routers = min(d.Routers, 18)
		// Stubs are dominated by invisible/implicit tunnels (Fig. 13a).
		d.PropagateProb = 0.35
		d.RFC4950Prob = 0.3
	case Tier1, Transit:
		d.ExtraLinkFrac = 0.4
	}
	switch {
	case rec.Claimed():
		d.MPLS = true
		d.SRFrac = 0.5 + 0.5*rng.Float64()
		d.TEProb = 0.08
		d.Interworking = rng.Float64() < 0.3
		d.MappingServer = d.Interworking
		d.ClassicStackProb = 0.1
	default:
		// Unknown ASes: a third LSO-heavy classic MPLS, a third plain
		// LDP, a third with some SR after all (the paper found SR signals
		// in 94% of unconfirmed ASes, mostly weak).
		d.MPLS = rec.Category != Stub || rng.Float64() < 0.5
		switch rng.Intn(3) {
		case 0:
			d.SRFrac = 0
			d.ClassicStackProb = 0.6
		case 1:
			d.SRFrac = 0
			d.ClassicStackProb = 0.1
		default:
			d.SRFrac = 0.4 + 0.4*rng.Float64()
			d.Interworking = rng.Float64() < 0.3
			d.MappingServer = d.Interworking
			d.ClassicStackProb = 0.2
		}
	}
	// ~30% of operators customize the vendor SRGB (survey, Sec. 3).
	if d.SRFrac > 0 && rng.Float64() < 0.3 {
		base := uint32(100000 + rng.Intn(50)*1000)
		d.CustomSRGB = mpls.LabelRange{Lo: base, Hi: base + 7999}
	}
	// Almost all domains keep one consistent SRGB (RFC 8402); the rare
	// rest leave per-vendor defaults, which is what suffix matching
	// catches (the paper measures only 0.01% suffix-based matches).
	d.AlignSRGB = rng.Float64() < 0.98
	applyOverrides(rec, &d)
	return d
}

// applyOverrides pins the behaviours the paper reports for specific ASes.
func applyOverrides(rec Record, d *Deployment) {
	switch rec.ID {
	case 2, 3, 16: // Iliad Italy, NTT Docomo, Rakuten: no explicit tunnels
		d.PropagateProb = 0
		d.RFC4950Prob = 0.2
	case 44: // Midco-Net: ~5% explicit tunnels
		d.PropagateProb = 0.05
	case 46: // ESnet: full SR, fingerprint-blind, service-SID stacks.
		// A small pipe-mode minority leaves opaque ending hops whose deep
		// quotes raise LSO — the ~5% LSO share of Table 3.
		d.MPLS = true
		d.SRFrac = 1
		d.Interworking = false
		d.SNMPOpenProb = 0
		d.EchoProb = 0
		d.PropagateProb = 0.93
		d.RFC4950Prob = 1
		d.ServiceProb = 0.25
		d.CustomSRGB = mpls.LabelRange{} // default ranges
		d.VendorWeights = map[mpls.Vendor]int{mpls.VendorNokia: 100}
	case 52: // Execulink: unshrinking stacks in both contexts
		d.ServiceProb = 0.4
		d.ClassicStackProb = 0.5
	case 15: // Microsoft: widest SR footprint
		d.MPLS = true
		d.SRFrac = 1
		d.Interworking = false
		d.PropagateProb = 1
		d.RFC4950Prob = 1
	case 7: // Proximus: exclusively LSO signals
		d.MPLS = true
		d.SRFrac = 0
		d.ClassicStackProb = 0.8
		d.PropagateProb = 1
		d.RFC4950Prob = 0.9
	case 31, 38, 40, 55: // KDDI, Telecom Italia, HE, Orange: well fingerprinted
		d.SNMPOpenProb = 0.5
		d.EchoProb = 1
	}
}

// World is one synthetic target AS with its probing scaffolding.
type World struct {
	Record Record
	Dep    Deployment
	Net    *netsim.Network
	// Routers are the target-AS routers; Edges the PE subset.
	Routers []*netsim.Router
	Edges   []*netsim.Router
	// VPs are vantage-point host addresses (one per upstream gateway).
	VPs []netip.Addr
	// Targets are tunnel-eligible destinations inside the AS.
	Targets []netip.Addr
	// SRRouter is the ground truth: router ID -> SR-enabled.
	SRRouter map[netsim.RouterID]bool
}

// ASNOf annotates an address with its true owner ASN (the oracle the
// bdrmap inference is evaluated against), 0 when unknown.
func (w *World) ASNOf(a netip.Addr) int {
	if r, ok := w.Net.RouterByAddr(a); ok {
		return r.ASN
	}
	return 0
}

func pickVendor(rng *rand.Rand, weights map[mpls.Vendor]int) mpls.Vendor {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := rng.Intn(total)
	for _, v := range []mpls.Vendor{mpls.VendorCisco, mpls.VendorJuniper, mpls.VendorNokia,
		mpls.VendorArista, mpls.VendorLinux, mpls.VendorHuawei, mpls.VendorMikroTik} {
		w := weights[v]
		if n < w {
			return v
		}
		n -= w
	}
	return mpls.VendorCisco
}

// Build instantiates the world: the target-AS topology, upstream vantage
// point gateways, attached targets, the SR/LDP control planes, and the
// SR-TE/service-SID policies.
func Build(rec Record, dep Deployment, numVPs int, seed int64) *World {
	rng := rand.New(rand.NewSource(seed*31 + int64(rec.ID)))
	n := netsim.New(seed ^ int64(rec.ID)<<20)
	n.MappingServer = dep.MappingServer

	w := &World{Record: rec, Dep: dep, Net: n, SRRouter: make(map[netsim.RouterID]bool)}

	// Decide the SR region. Partial deployments are contiguous — operators
	// roll SR out per region/POP, not per random router — so any SRFrac
	// strictly between 0 and 1 splits the index space at a cut. The
	// Interworking knob only decides whether the two regions interoperate
	// at the label level (mapping server / dual-plane borders).
	regionized := dep.MPLS && dep.SRFrac > 0 && dep.SRFrac < 1
	cut := int(float64(dep.Routers) * dep.SRFrac)
	// Large LDP remainders split into two islands hanging off different SR
	// borders, so multi-island chaining patterns (LDP-SR-LDP) can occur.
	island2 := dep.Routers + 1
	if regionized && dep.Routers-cut >= 8 {
		island2 = cut + (dep.Routers-cut)/2
	}
	border2 := cut / 2 // SR-side attachment of the second island
	srOf := func(i int) bool {
		if !dep.MPLS {
			return false
		}
		if regionized {
			return i < cut
		}
		return dep.SRFrac >= 1
	}
	borderOf := func(i int) bool {
		if !regionized || !dep.Interworking {
			return false
		}
		if i == cut-1 || i == cut {
			return true // routers straddling the first region cut
		}
		return island2 <= dep.Routers && (i == border2 || i == island2)
	}

	for i := 0; i < dep.Routers; i++ {
		v := pickVendor(rng, dep.VendorWeights)
		prof := netsim.DefaultProfile(v)
		prof.TTLPropagate = rng.Float64() < dep.PropagateProb
		prof.RFC4950 = rng.Float64() < dep.RFC4950Prob
		prof.SNMPOpen = rng.Float64() < dep.SNMPOpenProb
		prof.RespondsEcho = rng.Float64() < dep.EchoProb
		prof.ExplicitNull = rng.Float64() < dep.ExplicitNullProb
		prof.ICMPLossProb = dep.ICMPLossProb
		sr := srOf(i)
		border := borderOf(i)
		cfg := netsim.RouterConfig{
			Name:    fmt.Sprintf("%s-r%d", rec.Name, i),
			ASN:     rec.ASN,
			Vendor:  v,
			Profile: prof,
		}
		switch {
		case sr || border:
			cfg.SREnabled = true
			cfg.LDPEnabled = border
			cfg.Mode = netsim.ModeSR
			switch {
			case dep.CustomSRGB.Size() > 0:
				cfg.SRGB = dep.CustomSRGB
			case dep.AlignSRGB:
				// Domain-wide consistent SRGB: the common multi-vendor
				// interop configuration (Cisco's default block).
				cfg.SRGB = mpls.CiscoSRGB
			}
		case dep.MPLS:
			cfg.LDPEnabled = true
			cfg.Mode = netsim.ModeLDP
		default:
			cfg.Mode = netsim.ModeIP
		}
		r := n.AddRouter(cfg)
		w.Routers = append(w.Routers, r)
		w.SRRouter[r.ID] = cfg.SREnabled
		if i > 0 {
			// Random tree over the already-placed routers; each region
			// stays contiguous, LDP islands hanging off their SR border.
			parent := treeParent(i, cut, island2, border2, regionized, rng)
			n.Connect(w.Routers[parent].ID, r.ID, 10)
		}
	}
	// Redundancy links (within regions to keep interworking clean).
	extra := int(float64(dep.Routers) * dep.ExtraLinkFrac)
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(dep.Routers), rng.Intn(dep.Routers)
		if i == j {
			continue
		}
		if regionized && regionOf(i, cut, island2) != regionOf(j, cut, island2) {
			continue
		}
		a, b := w.Routers[i], w.Routers[j]
		if _, dup := a.InterfaceTo(b.ID); dup {
			continue
		}
		n.Connect(a.ID, b.ID, 10+rng.Intn(3)*10)
	}

	// PE selection: degree-1 routers plus random picks, at least 2.
	isEdge := make(map[netsim.RouterID]bool)
	for _, r := range w.Routers {
		if len(n.Neighbors(r.ID)) <= 1 {
			isEdge[r.ID] = true
		}
	}
	for len(isEdge) < max(2, dep.Routers/5) {
		isEdge[w.Routers[rng.Intn(dep.Routers)].ID] = true
	}
	for _, r := range w.Routers {
		if isEdge[r.ID] {
			w.Edges = append(w.Edges, r)
		}
	}

	// Customer prefixes and target hosts behind PEs.
	for k, pe := range w.Edges {
		p := netip.MustParsePrefix(fmt.Sprintf("100.%d.%d.0/24", rec.ID%250, k))
		n.AdvertisePrefix(pe.ID, p)
		host := netip.MustParseAddr(fmt.Sprintf("100.%d.%d.20", rec.ID%250, k))
		n.AddHost(host, pe.ID)
		w.Targets = append(w.Targets, host)
	}
	for _, r := range w.Routers {
		w.Targets = append(w.Targets, r.Loopback)
	}

	// Vantage points: one upstream gateway AS each, wired into core
	// (non-customer-edge) routers when available, as transit enters an AS
	// at peering ASBRs rather than at customer PEs.
	var core []*netsim.Router
	for i, r := range w.Routers {
		if isEdge[r.ID] {
			continue
		}
		// In an incrementally-deployed (interworking) domain the SR
		// region is the transit core: external traffic enters there and
		// descends into the legacy LDP islands, which is why SR→LDP is
		// the dominant interworking direction in the paper.
		if regionized && !srOf(i) && !borderOf(i) {
			continue
		}
		core = append(core, r)
	}
	if len(core) == 0 {
		core = w.Edges
	}
	// A minority of entry points sit on the legacy side (customer uplinks
	// into LDP islands), producing the paper's rare LDP→SR direction.
	var ldpCore []*netsim.Router
	if regionized && dep.Interworking {
		for i, r := range w.Routers {
			if i >= cut && !isEdge[r.ID] {
				ldpCore = append(ldpCore, r)
			}
		}
	}
	for v := 0; v < numVPs; v++ {
		gw := n.AddRouter(netsim.RouterConfig{
			Name: fmt.Sprintf("vpgw-%d", v), ASN: 64500 + v,
			Vendor: mpls.VendorLinux, Profile: netsim.DefaultProfile(mpls.VendorLinux),
			Mode: netsim.ModeIP,
		})
		entry := core[rng.Intn(len(core))]
		if len(ldpCore) > 0 && v%8 == 7 {
			entry = ldpCore[rng.Intn(len(ldpCore))]
		}
		n.Connect(gw.ID, entry.ID, 10)
		vp := netip.MustParseAddr(fmt.Sprintf("172.16.%d.10", v))
		n.AddHost(vp, gw.ID)
		w.VPs = append(w.VPs, vp)
	}

	// Service SIDs for PEs that terminate service chains, and VPN-style
	// service labels for classic-MPLS PEs (the depth-2 LSO source).
	svc := make(map[netsim.RouterID]uint32)
	vpn := make(map[netsim.RouterID]uint32)
	for _, pe := range w.Edges {
		if w.SRRouter[pe.ID] {
			svc[pe.ID] = n.AllocateServiceSID(pe)
		}
		if dep.ClassicStackProb > 0 && dep.MPLS {
			vpn[pe.ID] = n.AllocateServiceSID(pe)
		}
	}
	if dep.ClassicStackProb > 0 {
		classicProb := dep.ClassicStackProb
		n.LDPStackPolicy = func(ing *netsim.Router, egress netsim.RouterID, dst netip.Addr) (uint32, bool) {
			label, ok := vpn[egress]
			if !ok {
				return 0, false
			}
			if float64(addrHash(dst)>>5%1000)/1000 >= classicProb {
				return 0, false
			}
			return label, true
		}
	}
	if dep.EntropyProb > 0 {
		entropyProb := dep.EntropyProb
		n.EntropyPolicy = func(ing *netsim.Router, egress netsim.RouterID, dst netip.Addr, flow uint64) bool {
			return float64(addrHash(dst)>>13%1000)/1000 < entropyProb
		}
	}
	// SR routers usable as TE waypoints.
	var srIDs []netsim.RouterID
	for _, r := range w.Routers {
		if w.SRRouter[r.ID] {
			srIDs = append(srIDs, r.ID)
		}
	}
	teProb, svcProb := dep.TEProb, dep.ServiceProb
	n.SRPolicy = func(ing *netsim.Router, egress netsim.RouterID, dst netip.Addr, flow uint64) netsim.SegmentList {
		h := addrHash(dst)
		if svcProb > 0 && float64(h%1000)/1000 < svcProb {
			if label, ok := svc[egress]; ok {
				return netsim.SegmentList{{Node: egress}, {Service: true, ServiceLabel: label}}
			}
		}
		if teProb > 0 && float64(h>>10%1000)/1000 < teProb && len(srIDs) > 0 {
			wp := srIDs[int(h>>20)%len(srIDs)]
			// Steering through an adjacent waypoint is pointless; real TE
			// policies pick distant ones, which also keeps every segment
			// long enough to expose a label sequence.
			if wp != egress && wp != ing.ID &&
				n.PathLen(ing.ID, wp, flow) >= 2 && n.PathLen(wp, egress, flow) >= 2 {
				return netsim.SegmentList{{Node: wp}, {Node: egress}}
			}
		}
		return nil
	}

	n.Compute()
	return w
}

func addrHash(a netip.Addr) uint64 {
	b := a.As4()
	h := uint64(2166136261)
	for _, x := range b {
		h = h*16777619 ^ uint64(x)
	}
	return h
}

// regionOf labels a router index with its deployment region: 0 for the SR
// core, 1 and 2 for the LDP islands.
func regionOf(i, cut, island2 int) int {
	switch {
	case i < cut:
		return 0
	case i < island2:
		return 1
	default:
		return 2
	}
}

// treeParent picks the random-tree attachment point for router i, keeping
// every region internally connected and rooting each LDP island at its SR
// border router.
func treeParent(i, cut, island2, border2 int, regionized bool, rng *rand.Rand) int {
	if !regionized {
		return rng.Intn(i)
	}
	switch {
	case i < cut:
		return rng.Intn(i)
	case i == cut:
		return cut - 1
	case i < island2:
		return cut - 1 + rng.Intn(i-(cut-1)) // border or island-1 routers
	case i == island2:
		return border2
	default:
		// Island 2: parent among border2's island or earlier island-2 routers.
		if i == island2 {
			return border2
		}
		return island2 + rng.Intn(i-island2)
	}
}
