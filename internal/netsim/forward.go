// This file is the per-packet forwarding engine: every probe of every
// campaign runs through Send and process, and the Send allocation budgets
// (DESIGN.md §11) run each of its forwarding and reply branches.
package netsim

import (
	"errors"
	"fmt"
	"net/netip"

	"arest/internal/mpls"
	"arest/internal/pkt"
)

// ttlMode is the TTL treatment chosen at push time (RFC 3443).
type ttlMode int

const (
	modeUniform ttlMode = iota // ttl-propagate on: IP TTL copied into LSE TTL
	modePipe                   // ttl-propagate off: LSE TTL 255, IP TTL frozen inside
)

// frame is a packet in flight: an IP packet under an optional label stack.
// The stack is owned by the frame (scratch-backed or freshly built at the
// ingress), so forwarding mutates it in place instead of copying per hop.
type frame struct {
	stack mpls.Stack
	ip    *pkt.IPv4
	mode  ttlMode
}

// popStack drops the top LSE in place (no copy; the frame owns the stack).
func (f *frame) popStack() {
	if len(f.stack) <= 1 {
		f.stack = nil
	} else {
		f.stack = f.stack[1:]
	}
}

// Delivery is the outcome of injecting one probe. Send returns it by
// value: only Reply lives on the heap.
type Delivery struct {
	// Reply holds the serialized IPv4 reply observed at the probing host,
	// nil when no reply was generated (silent router, drop, or no route).
	Reply []byte
	// FwdHops and RetHops are the forward and return hop counts, used by
	// the prober to synthesize RTTs. FwdHops counts the routers the probe
	// traversed, including the one that answered or dropped it; it is 0
	// when the destination has no route or forwarding looped.
	FwdHops, RetHops int
}

// Errors returned by Send.
var (
	ErrUnknownHost = errors.New("netsim: source address is not an attached host")
	ErrNotComputed = errors.New("netsim: Compute must be called before Send")
)

const maxSteps = 1024

// Send injects the serialized IPv4 probe wire from the attached host with
// source address src and simulates its journey. The reply (if any) is the
// serialized IPv4 packet the host would capture; it is freshly allocated
// and owned by the caller, and it is the only allocation a Send makes.
// wire is only read during the call — Send does not retain it.
//
// Send resolves the probe's destination once, from the exact-address
// index Compute builds (falling back to a longest-prefix match for
// routed prefixes without an attached host): its owner, the router whose
// own address it is, its tunnel eligibility and its attached host. The
// per-hop loop then reads that record instead of probing maps.
//
// Send is safe for concurrent use after Compute (which establishes the
// happens-before edge for all control-plane state) and mutates nothing but
// the replying router's IP-ID counter; see the package comment for the
// full concurrency model. All transient state (decoded probe, label
// stacks, quote/reply buffers) comes from a sync.Pool and is fully
// overwritten before use, so pooling never leaks one probe's bytes into
// another's reply. Any topology change, hosts and advertised prefixes
// included, makes Send return ErrNotComputed until Compute runs again.
func (n *Network) Send(src netip.Addr, wire []byte) (Delivery, error) {
	return n.send(src, wire, nil)
}

// send is Send that, when path is non-nil, also appends every router the
// probe traverses to *path, in order, including the one that answered or
// dropped it. Only tests ask for the path; Send counts hops instead.
func (n *Network) send(src netip.Addr, wire []byte, path *[]RouterID) (Delivery, error) {
	if !n.computed {
		return Delivery{}, ErrNotComputed
	}
	host, ok := n.hosts[src]
	if !ok {
		return Delivery{}, fmt.Errorf("%w: %s", ErrUnknownHost, src)
	}
	s := sendScratchPool.Get().(*sendScratch)
	defer sendScratchPool.Put(s)
	if err := pkt.UnmarshalIPv4Into(&s.ip, wire); err != nil {
		n.met.dropParse.Inc()
		return Delivery{}, fmt.Errorf("netsim: bad probe: %w", err)
	}
	c := &s.ctx
	*c = sendCtx{
		n:         n,
		flow:      flowHash(&s.ip),
		dst:       n.resolve(s.ip.Dst),
		vpGateway: host.Gateway,
		probeSrc:  src,
		scr:       s,
	}
	if c.dst.owner < 0 {
		n.met.dropNoRoute.Inc()
		return Delivery{}, nil // no route: probe vanishes
	}

	f := &s.frame
	*f = frame{ip: &s.ip}
	cur := host.Gateway
	prev := RouterID(-1)
	for step := 1; step <= maxSteps; step++ {
		if path != nil {
			*path = append(*path, cur)
		}
		next, reply, done := c.process(n.routers[cur], prev, f)
		if done {
			return Delivery{Reply: reply, FwdHops: step, RetHops: c.lastRetDist}, nil
		}
		n.met.forwarded.Inc()
		prev, cur = cur, next
	}
	n.met.dropLoop.Inc()
	return Delivery{}, nil // forwarding loop: treated as loss
}

// flowHash derives the Paris-stable flow identifier from the probe's
// 5-tuple (ports for UDP, identifier for ICMP).
func flowHash(ip *pkt.IPv4) uint64 {
	h := uint64(17)
	s, d := ip.Src.As4(), ip.Dst.As4()
	h = mixFlow(h, uint64(s[0])<<24|uint64(s[1])<<16|uint64(s[2])<<8|uint64(s[3]))
	h = mixFlow(h, uint64(d[0])<<24|uint64(d[1])<<16|uint64(d[2])<<8|uint64(d[3]))
	h = mixFlow(h, uint64(ip.Protocol))
	if len(ip.Payload) >= 4 {
		switch ip.Protocol {
		case pkt.ProtoUDP:
			h = mixFlow(h, uint64(ip.Payload[0])<<24|uint64(ip.Payload[1])<<16|
				uint64(ip.Payload[2])<<8|uint64(ip.Payload[3]))
		case pkt.ProtoICMP:
			if len(ip.Payload) >= 6 {
				h = mixFlow(h, uint64(ip.Payload[4])<<8|uint64(ip.Payload[5])) // echo ID
			}
		}
	}
	return h
}

// mixFlow folds one word into the FNV-style flow hash.
func mixFlow(h, v uint64) uint64 { return h*0x100000001b3 ^ v }

type sendCtx struct {
	n           *Network
	flow        uint64
	dst         dstInfo // the probe's destination, resolved once per Send
	vpGateway   RouterID
	probeSrc    netip.Addr
	lastRetDist int
	scr         *sendScratch
}

// process runs one router's worth of forwarding. It returns either the next
// hop (done=false) or the final outcome (done=true, reply possibly nil).
func (c *sendCtx) process(r *Router, prev RouterID, f *frame) (next RouterID, reply []byte, done bool) {
	// Snapshot the stack as received into per-Send scratch: the RFC 4950
	// quote must show the pre-processing LSEs while forwarding mutates the
	// frame's stack in place.
	received := append(c.scr.received[:0], f.stack...)
	c.scr.received = received
	rcvIPTTL := f.ip.TTL

	ttlDone := false
	if len(f.stack) > 0 {
		// MPLS stage: one LSE-TTL decrement per router.
		if f.stack[0].TTL <= 1 {
			c.n.met.ttlExpired.Inc()
			return 0, c.timeExceeded(r, c.inIface(r, prev), f, received, rcvIPTTL), true
		}
		f.stack[0].TTL--
		for len(f.stack) > 0 {
			eff := f.stack[0].TTL
			kind, fec, nbr := c.n.resolveLabel(r, f.stack[0].Label)
			switch kind {
			case labelNodeSID:
				e := c.n.routers[fec]
				if e.ID == r.ID {
					// Active segment completed at this node: pop.
					f.popStack()
					c.popTTLAdjust(f, eff)
					continue
				}
				nh, ok := c.n.NextHop(r.ID, e.ID, c.flow)
				if !ok {
					c.n.met.dropNoRoute.Inc()
					return 0, nil, true
				}
				nhr := c.n.routers[nh]
				if out, ok := c.n.srLabelAt(nhr, e); ok {
					f.stack[0].Label = out
					f.stack[0].TTL = eff
					return nh, nil, false
				}
				// SR→LDP interworking: the next hop is not SR-capable, so
				// this border router swaps the SR label for the neighbor's
				// LDP binding toward the same FEC.
				if nh == e.ID {
					// LDP implicit null at the penultimate hop.
					f.popStack()
					c.popTTLAdjust(f, eff)
					return nh, nil, false
				}
				if out, ok := nhr.ldpOut[e.ID]; ok {
					f.stack[0].Label = out
					f.stack[0].TTL = eff
					return nh, nil, false
				}
				c.n.met.dropNoRoute.Inc()
				return 0, nil, true // no binding: drop
			case labelService:
				// Service SID terminating here: consume it and continue
				// processing the rest of the packet locally.
				f.popStack()
				c.popTTLAdjust(f, eff)
				continue
			case labelExplicitNull:
				// Reserved label 0 (RFC 3032): pop and forward by the IP
				// header (or by the next label, for robustness).
				f.popStack()
				c.popTTLAdjust(f, eff)
				continue
			case labelELI:
				// Entropy label indicator (RFC 6790): the ELI and the
				// entropy label beneath it are consumed together.
				f.popStack()
				if len(f.stack) > 0 {
					f.popStack()
				}
				c.popTTLAdjust(f, eff)
				continue
			case labelAdjSID:
				if c.n.linkDown(r.ID, nbr) {
					c.n.met.dropLinkDown.Inc()
					return 0, nil, true // adjacency segment over a dead link
				}
				f.popStack()
				c.popTTLAdjust(f, eff)
				return nbr, nil, false
			case labelLDP:
				// distributeLDP never binds a label to the router's own
				// FEC, so an LDP label always leads on toward its egress.
				e := c.n.routers[fec]
				nh, ok := c.n.NextHop(r.ID, e.ID, c.flow)
				if !ok {
					c.n.met.dropNoRoute.Inc()
					return 0, nil, true
				}
				nhr := c.n.routers[nh]
				if nhr.LDPEnabled {
					if nh == e.ID {
						if e.Profile.ExplicitNull {
							// The egress advertised explicit null: swap
							// to label 0 instead of popping.
							f.stack[0].Label = mpls.LabelIPv4ExplicitNull
							f.stack[0].TTL = eff
							return nh, nil, false
						}
						// Penultimate-hop popping (implicit null).
						f.popStack()
						c.popTTLAdjust(f, eff)
						return nh, nil, false
					}
					if out, ok := nhr.ldpOut[e.ID]; ok {
						f.stack[0].Label = out
						f.stack[0].TTL = eff
						return nh, nil, false
					}
					c.n.met.dropNoRoute.Inc()
					return 0, nil, true
				}
				// LDP→SR interworking: SR border routers advertise LDP
				// bindings mirroring node SIDs, so the frame continues on
				// the neighbor's SR label for the same FEC.
				if out, ok := c.n.srLabelAt(nhr, e); ok {
					f.stack[0].Label = out
					f.stack[0].TTL = eff
					return nh, nil, false
				}
				c.n.met.dropNoRoute.Inc()
				return 0, nil, true
			default:
				c.n.met.dropNoRoute.Inc()
				return 0, nil, true // unknown label: drop
			}
		}
		// The whole stack popped here. Under the uniform model the IP TTL
		// was already synced to the (decremented) LSE TTL; under short-pipe
		// the egress still performs its own IP TTL work below.
		ttlDone = f.mode == modeUniform
	}

	// IP stage. A packet addressed to one of this router's own addresses
	// is delivered without a TTL check; packets for attached hosts or
	// routed prefixes are still forwarded (one more TTL consumed), so the
	// destination appears one traceroute hop beyond its gateway.
	if r.ID == c.dst.owner && r.ID == c.dst.router {
		return 0, c.deliver(r, f, received, rcvIPTTL), true
	}
	if !ttlDone {
		if f.ip.TTL <= 1 {
			c.n.met.ttlExpired.Inc()
			return 0, c.timeExceeded(r, c.inIface(r, prev), f, received, rcvIPTTL), true
		}
		f.ip.TTL--
	}
	if r.ID == c.dst.owner {
		return 0, c.deliver(r, f, received, rcvIPTTL), true
	}

	ownerR := c.n.routers[c.dst.owner]
	nh, ok := c.n.fibNextHop(r.ID, c.dst.owner, c.flow)
	if !ok {
		c.n.met.dropNoRoute.Inc()
		return 0, nil, true
	}

	// Ingress LER decision: label-push transit traffic toward an egress in
	// the same AS, for tunnel-eligible FECs only.
	if len(f.stack) == 0 && r.Mode != ModeIP && ownerR.ASN == r.ASN && c.dst.eligible {
		pushed, newNh := c.push(r, ownerR, f)
		if pushed {
			return newNh, nil, false
		}
	}
	return nh, nil, false
}

// push applies the ingress encapsulation; it returns false when no label
// ends up on the packet (implicit null to an adjacent egress, or missing
// state), in which case plain IP forwarding proceeds. An SR-mode ingress
// that runs only LDP pushes LDP labels.
func (c *sendCtx) push(r *Router, egress *Router, f *frame) (bool, RouterID) {
	f.mode = modeUniform
	if !r.Profile.TTLPropagate {
		f.mode = modePipe
	}
	lseTTL := f.ip.TTL
	if f.mode == modePipe {
		lseTTL = 255
	}

	switch {
	case r.Mode == ModeSR && r.SREnabled:
		c.scr.segBuf[0] = Segment{Node: egress.ID}
		segs := SegmentList(c.scr.segBuf[:1])
		if c.n.SRPolicy != nil {
			if s := c.n.SRPolicy(r, egress.ID, f.ip.Dst, c.flow); len(s) > 0 {
				segs = s
			}
		}
		stack, ok := c.n.buildSRStack(c.scr.stackBuf[:0], r, segs, c.flow, lseTTL)
		if !ok {
			// Destination has no SID (LDP-only egress, no mapping server):
			// fall back to LDP, but only if this router actually runs LDP —
			// a pure-SR ingress has no LDP sessions to learn labels from.
			if r.LDPEnabled {
				return c.pushLDP(r, egress, f, lseTTL)
			}
			return false, 0
		}
		c.scr.stackBuf = stack
		nh, ok2 := c.n.NextHop(r.ID, firstNodeOf(segs, egress.ID), c.flow)
		if !ok2 {
			return false, 0
		}
		f.stack = stack
		return true, nh
	case (r.Mode == ModeSR || r.Mode == ModeLDP) && r.LDPEnabled:
		return c.pushLDP(r, egress, f, lseTTL)
	}
	return false, 0
}

func firstNodeOf(segs SegmentList, fallback RouterID) RouterID {
	if len(segs) > 0 && !segs[0].Adj && !segs[0].Service {
		return segs[0].Node
	}
	return fallback
}

func (c *sendCtx) pushLDP(r *Router, egress *Router, f *frame, lseTTL uint8) (bool, RouterID) {
	nh, ok := c.n.NextHop(r.ID, egress.ID, c.flow)
	if !ok {
		return false, 0
	}
	var inner mpls.LSE
	haveInner := false
	if c.n.LDPStackPolicy != nil {
		if l, ok2 := c.n.LDPStackPolicy(r, egress.ID, f.ip.Dst); ok2 {
			inner = mpls.LSE{Label: l, TTL: lseTTL}
			haveInner = true
		}
	}
	stack := c.scr.stackBuf[:0]
	if nh == egress.ID {
		// An adjacent egress advertised implicit null (no transport label)
		// or explicit null (label 0); a service label, if any, still rides
		// to the egress.
		if egress.Profile.ExplicitNull {
			stack = append(stack, mpls.LSE{Label: mpls.LabelIPv4ExplicitNull, TTL: lseTTL})
		}
		if haveInner {
			stack = append(stack, inner)
		}
		if len(stack) == 0 {
			return false, 0
		}
		stack = c.appendEntropy(r, egress.ID, f, stack, lseTTL)
		c.scr.stackBuf = stack
		f.stack = stack
		return true, nh
	}
	nhr := c.n.routers[nh]
	var label uint32
	if nhr.LDPEnabled {
		label, ok = nhr.ldpOut[egress.ID]
		if !ok {
			return false, 0
		}
	} else if l, ok2 := c.n.srLabelAt(nhr, egress); ok2 {
		label = l // LDP ingress facing an SR core: LDP→SR at the first hop
	} else {
		return false, 0
	}
	stack = append(stack, mpls.LSE{Label: label, TTL: lseTTL})
	if haveInner {
		stack = append(stack, inner)
	}
	stack = c.appendEntropy(r, egress.ID, f, stack, lseTTL)
	c.scr.stackBuf = stack
	f.stack = stack
	return true, nh
}

// appendEntropy adds an RFC 6790 entropy label pair (ELI + flow-derived EL)
// to the bottom of a classic-MPLS stack when the ingress policy asks for
// load-balancing entropy.
func (c *sendCtx) appendEntropy(r *Router, egress RouterID, f *frame, stack mpls.Stack, lseTTL uint8) mpls.Stack {
	if c.n.EntropyPolicy == nil || len(stack) == 0 {
		return stack
	}
	if !c.n.EntropyPolicy(r, egress, f.ip.Dst, c.flow) {
		return stack
	}
	el := uint32(16 + c.flow%1000000)
	return append(stack,
		mpls.LSE{Label: mpls.LabelELI, TTL: lseTTL},
		mpls.LSE{Label: el, TTL: lseTTL})
}

// popTTLAdjust applies RFC 3443 TTL propagation when an LSE is popped.
// eff is the (already decremented) TTL of the popped entry.
func (c *sendCtx) popTTLAdjust(f *frame, eff uint8) {
	if f.mode != modeUniform {
		return
	}
	if len(f.stack) > 0 {
		f.stack[0].TTL = eff
	} else if eff < f.ip.TTL {
		f.ip.TTL = eff
	}
}

// inIface resolves the address of r's interface facing the previous hop.
func (c *sendCtx) inIface(r *Router, prev RouterID) netip.Addr {
	if prev >= 0 {
		if a, ok := r.ifaces[prev]; ok {
			return a
		}
	}
	return r.Loopback
}

// retDist computes the return path length (in IP hops) from a replying
// router back to the probing host.
func (c *sendCtx) retDist(r *Router) int {
	d := c.n.PathLen(r.ID, c.vpGateway, c.flow)
	if d < 0 {
		d = 0
	}
	return d + 1 // gateway → host
}

// nextIPID advances r's shared IP-ID counter by one packet. The counter is
// base + stride*count with an atomic count, so concurrent Sends commute:
// the value observed by any single reply depends on scheduling, but the
// counter state after a set of probes does not. (stride*uint16(count) mod
// 2^16 equals repeated uint16 addition, since stride·(N mod 2^16) ≡
// stride·N mod 2^16.)
func (c *sendCtx) nextIPID(r *Router) uint16 {
	cnt := r.ipIDCount.Add(1)
	return r.ipIDBase + r.ipIDStride*uint16(cnt)
}

// quoteBytes rebuilds the original datagram as the replying router saw it,
// serializing into per-Send scratch.
func (c *sendCtx) quoteBytes(f *frame, rcvTTL uint8) []byte {
	s := c.scr
	s.qip = *f.ip
	s.qip.TTL = rcvTTL
	b, err := s.qip.AppendMarshal(s.quote[:0])
	if err != nil {
		return nil
	}
	s.quote = b
	return b
}

// timeExceeded builds the ICMP time-exceeded reply from router r, quoting
// the received label stack when the router implements RFC 4950.
func (c *sendCtx) timeExceeded(r *Router, src netip.Addr, f *frame, received mpls.Stack, rcvTTL uint8) []byte {
	if !r.Profile.RespondsICMP {
		c.n.met.dropSilent.Inc()
		return nil
	}
	if c.icmpLost(r, f) {
		c.n.met.dropRateLim.Inc()
		return nil
	}
	return c.icmpError(r, src, pkt.ICMPTimeExceeded, pkt.CodeTTLExceeded, f, received, rcvTTL)
}

// icmpLost models ICMP rate limiting: a deterministic per-probe coin flip
// keyed on the router and the probe's IP-ID, so a retry (new IP-ID) draws
// a fresh coin.
func (c *sendCtx) icmpLost(r *Router, f *frame) bool {
	p := r.Profile.ICMPLossProb
	if p <= 0 {
		return false
	}
	h := uint64(r.ID)*0x9e3779b97f4a7c15 ^ uint64(f.ip.ID)*0xc2b2ae3d27d4eb4f ^ c.flow
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return float64(h%10000)/10000 < p
}

// icmpError builds a serialized ICMP error reply. All intermediate pieces
// (quote, RFC 4950 object, ICMP message) live in per-Send scratch; the
// only allocation is the returned reply wire, which the caller owns.
func (c *sendCtx) icmpError(r *Router, src netip.Addr, typ, code uint8, f *frame, received mpls.Stack, rcvTTL uint8) []byte {
	s := c.scr
	s.msg = pkt.ICMP{Type: typ, Code: code, Body: c.quoteBytes(f, rcvTTL)}
	if r.Profile.RFC4950 && len(received) > 0 {
		if extb, err := received.AppendMarshal(s.extBuf[:0]); err == nil {
			s.extBuf = extb
			s.extObjs[0] = pkt.ExtensionObject{
				Class: pkt.ClassMPLSLabelStack, CType: pkt.CTypeIncomingStack, Payload: extb,
			}
			s.msg.Extensions = s.extObjs[:1]
		}
	}
	payload, err := s.msg.AppendMarshal(s.payload[:0])
	if err != nil {
		c.n.met.dropParse.Inc()
		return nil
	}
	s.payload = payload
	switch typ {
	case pkt.ICMPTimeExceeded:
		c.n.met.icmpTimeEx.Inc()
	case pkt.ICMPDestUnreachable:
		c.n.met.icmpUnreach.Inc()
	}
	ret := c.retDist(r)
	c.lastRetDist = ret
	initTTL := int(r.Profile.InitialTTLTimeExceeded)
	outTTL := initTTL - ret
	if outTTL < 1 {
		outTTL = 1
	}
	s.out = pkt.IPv4{
		TTL:      uint8(outTTL),
		Protocol: pkt.ProtoICMP,
		ID:       c.nextIPID(r),
		Src:      src,
		Dst:      f.ip.Src,
		Payload:  payload,
	}
	b, err := s.out.AppendMarshal(make([]byte, 0, pkt.IPv4HeaderLen+len(payload)))
	if err != nil {
		return nil
	}
	return b
}

// deliver handles a probe that reached the router owning its destination:
// either a directly attached host answers, or the router itself does.
func (c *sendCtx) deliver(r *Router, f *frame, received mpls.Stack, rcvTTL uint8) []byte {
	if c.dst.host != nil {
		return c.hostReply(c.dst.host, r, f)
	}
	// Addressed to the router itself (loopback or interface) or to a
	// routed prefix with no attached host; the router answers either way,
	// sourcing the reply from the probed address as most stacks do.
	switch f.ip.Protocol {
	case pkt.ProtoUDP:
		if !r.Profile.RespondsICMP {
			c.n.met.dropSilent.Inc()
			return nil
		}
		if c.icmpLost(r, f) {
			c.n.met.dropRateLim.Inc()
			return nil
		}
		src := f.ip.Dst
		if c.dst.router < 0 {
			src = r.Loopback
		}
		return c.icmpError(r, src, pkt.ICMPDestUnreachable, pkt.CodePortUnreachable, f, received, rcvTTL)
	case pkt.ProtoICMP:
		return c.echoReply(r, f)
	default:
		return nil
	}
}

func (c *sendCtx) echoReply(r *Router, f *frame) []byte {
	if !r.Profile.RespondsEcho {
		c.n.met.dropSilent.Inc()
		return nil
	}
	s := c.scr
	if err := pkt.UnmarshalICMPInto(&s.echo, f.ip.Payload); err != nil || s.echo.Type != pkt.ICMPEchoRequest {
		c.n.met.dropParse.Inc()
		return nil
	}
	s.msg = pkt.ICMP{Type: pkt.ICMPEchoReply, ID: s.echo.ID, Seq: s.echo.Seq, Body: s.echo.Body}
	payload, err := s.msg.AppendMarshal(s.payload[:0])
	if err != nil {
		return nil
	}
	s.payload = payload
	ret := c.retDist(r)
	c.lastRetDist = ret
	outTTL := int(r.Profile.InitialTTLEchoReply) - ret
	if outTTL < 1 {
		outTTL = 1
	}
	src := f.ip.Dst
	if c.dst.router < 0 {
		src = r.Loopback
	}
	s.out = pkt.IPv4{
		TTL:      uint8(outTTL),
		Protocol: pkt.ProtoICMP,
		ID:       c.nextIPID(r),
		Src:      src,
		Dst:      f.ip.Src,
		Payload:  payload,
	}
	b, err := s.out.AppendMarshal(make([]byte, 0, pkt.IPv4HeaderLen+len(payload)))
	if err != nil {
		c.n.met.dropParse.Inc()
		return nil
	}
	c.n.met.icmpEcho.Inc()
	return b
}

// hostReply models the destination end host answering: port unreachable
// for UDP probes to closed ports, echo replies for pings.
func (c *sendCtx) hostReply(h *Host, gw *Router, f *frame) []byte {
	const hostInitTTL = 64
	s := c.scr
	var payload []byte
	switch f.ip.Protocol {
	case pkt.ProtoUDP:
		s.msg = pkt.ICMP{Type: pkt.ICMPDestUnreachable, Code: pkt.CodePortUnreachable, Body: c.quoteBytes(f, f.ip.TTL)}
		b, err := s.msg.AppendMarshal(s.payload[:0])
		if err != nil {
			return nil
		}
		s.payload = b
		payload = b
	case pkt.ProtoICMP:
		if err := pkt.UnmarshalICMPInto(&s.echo, f.ip.Payload); err != nil || s.echo.Type != pkt.ICMPEchoRequest {
			c.n.met.dropParse.Inc()
			return nil
		}
		s.msg = pkt.ICMP{Type: pkt.ICMPEchoReply, ID: s.echo.ID, Seq: s.echo.Seq, Body: s.echo.Body}
		b, err := s.msg.AppendMarshal(s.payload[:0])
		if err != nil {
			c.n.met.dropParse.Inc()
			return nil
		}
		s.payload = b
		payload = b
	default:
		return nil
	}
	ret := c.retDist(gw)
	c.lastRetDist = ret + 1
	outTTL := hostInitTTL - ret - 1
	if outTTL < 1 {
		outTTL = 1
	}
	s.out = pkt.IPv4{
		TTL:      uint8(outTTL),
		Protocol: pkt.ProtoICMP,
		Src:      h.Addr,
		Dst:      f.ip.Src,
		Payload:  payload,
	}
	b, err := s.out.AppendMarshal(make([]byte, 0, pkt.IPv4HeaderLen+len(payload)))
	if err != nil {
		c.n.met.dropParse.Inc()
		return nil
	}
	c.n.met.hostReplies.Inc()
	return b
}
