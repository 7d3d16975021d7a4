package probe

// ClassifyTunnels partitions a trace into MPLS tunnels following the
// Donnet et al. taxonomy:
//
//   - explicit: a run of hops quoting LSEs with propagated (small) TTLs;
//   - opaque: an LSE quote with a pipe-model TTL (≈255-len) at the ending
//     hop only, possibly preceded by TNT-revealed hops;
//   - invisible: TNT-revealed hops (or an RTLA length jump) with no LSE
//     evidence at all;
//   - implicit: hops quoting no LSE but whose quoted IP TTL (qTTL) forms
//     the 1,2,3,... staircase that only arises when the IP TTL is frozen
//     inside a tunnel while probes expire on the LSE TTL.
func ClassifyTunnels(tr *Trace) []Tunnel { return AppendTunnels(nil, tr) }

// AppendTunnels is ClassifyTunnels appending tr's tunnels to dst and
// returning the extended slice; it allocates only when dst lacks capacity.
func AppendTunnels(dst []Tunnel, tr *Trace) []Tunnel {
	out, base := dst, len(dst)
	n := len(tr.Hops)
	for i := 0; i < n; i++ {
		h := &tr.Hops[i]
		if !h.Responded() {
			continue
		}
		switch {
		case h.Revealed:
			// A revealed run, terminated by its ending hop.
			start := i
			for i+1 < n && tr.Hops[i+1].Revealed {
				i++
			}
			hidden := i - start + 1
			typ := TunnelInvisible
			if i+1 < n && tr.Hops[i+1].HasStack() && tr.Hops[i+1].Stack[0].TTL > opaqueTTLFloor {
				typ = TunnelOpaque
				i++ // include the ending hop with its LSE
			} else if i+1 < n && tr.Hops[i+1].Responded() && !tr.Hops[i+1].HasStack() {
				i++ // include the ending hop
			}
			out = append(out, Tunnel{Start: start, End: i, Type: typ, HiddenLen: hidden})
		case h.HasStack() && h.Stack[0].TTL > opaqueTTLFloor:
			// Opaque ending hop with no revelation available.
			out = append(out, Tunnel{Start: i, End: i, Type: TunnelOpaque,
				HiddenLen: 255 - int(h.Stack[0].TTL)})
		case h.HasStack():
			start := i
			for i+1 < n && tr.Hops[i+1].HasStack() && tr.Hops[i+1].Stack[0].TTL <= opaqueTTLFloor {
				i++
			}
			out = append(out, Tunnel{Start: start, End: i, Type: TunnelExplicit})
		case h.QTTL == 2 && i > 0 && tr.Hops[i-1].Responded() && tr.Hops[i-1].QTTL == 1 && !tr.Hops[i-1].HasStack():
			// Implicit staircase: the hop before the first qTTL=2 hop is
			// the first LSR (its own qTTL of 1 is indistinguishable alone).
			start := i - 1
			if len(out) > base && out[len(out)-1].End >= start {
				start = i
			}
			q := h.QTTL
			for i+1 < n && tr.Hops[i+1].Responded() && tr.Hops[i+1].QTTL == q+1 && !tr.Hops[i+1].HasStack() {
				i++
				q++
			}
			out = append(out, Tunnel{Start: start, End: i, Type: TunnelImplicit})
		default:
			// Plain hop; also check for an un-revealed invisible tunnel via
			// the RTLA jump to the next responding hop.
			if i+1 < n && tr.Hops[i+1].Responded() && !tr.Hops[i+1].Revealed &&
				!tr.Hops[i+1].HasStack() {
				jump := returnPathLen(tr.Hops[i+1].ReplyTTL) - returnPathLen(h.ReplyTTL)
				if jump > 1 {
					out = append(out, Tunnel{Start: i + 1, End: i + 1,
						Type: TunnelInvisible, HiddenLen: jump - 1})
					i++
				}
			}
		}
	}
	return out
}
