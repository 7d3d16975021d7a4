package probe

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
)

// opaqueTTLFloor is the quoted-LSE TTL above which a label quote can only
// come from a pipe-model tunnel (LSE TTL initialized to 255 at the ingress
// rather than copied from the IP TTL).
const opaqueTTLFloor = 200

// reveal implements TNT-style revelation: when the return-path length
// (RTLA) jumps by more than one between consecutive visible hops, or an
// opaque LSE quote is present, hidden hops are suspected in between. TNT
// then traces directly toward the downstream hop's interface address (DPR):
// interface prefixes carry no LDP/SR FEC, so those probes are forwarded as
// plain IP and expose the tunnel interior — without LSEs, exactly as the
// paper notes for invisible tunnels.
//
// Revealed hops are renumbered into the gap they fill (a.TTL+1, a.TTL+2, …)
// and every hop after the splice is shifted by the revealed count, so hop
// TTLs stay strictly increasing and consistent with hop indexes across the
// augmented trace.
//
// reveal works on the trace under construction in s, splicing revealed
// hops into s.hops. A failed auxiliary trace does not fail the main one:
// the failure is returned as one RevealErrs entry (and counted) and
// revelation moves on, so a trace with a broken DPR path still carries its
// measured hops — merely flagged that hidden content may remain
// unrevealed. Cancellation is the exception: once ctx is done, reveal
// stops and returns the cause, and the caller discards the whole trace — a
// partially revealed trace must never be recorded as if it were complete.
func (t *Tracer) reveal(ctx context.Context, s *probeScratch) ([]string, error) {
	var errs []string
	// Walk hop pairs; splice in revealed hops as we find them.
	for i := 0; i < len(s.hops)-1; i++ {
		if ctx.Err() != nil {
			return nil, context.Cause(ctx)
		}
		a, b := &s.hops[i], &s.hops[i+1]
		if !a.Responded() || !b.Responded() || b.Revealed {
			continue
		}
		suspected := 0
		if jump := returnPathLen(b.ReplyTTL) - returnPathLen(a.ReplyTTL); jump > 1 {
			suspected = jump - 1
		}
		if b.HasStack() && b.Stack[0].TTL > opaqueTTLFloor {
			if n := 255 - int(b.Stack[0].TTL); n > suspected {
				suspected = n
			}
		}
		if suspected == 0 {
			continue
		}
		trigger := b.Addr
		n, err := t.directPathRevelation(ctx, s, i+1)
		if err != nil && ctx.Err() != nil {
			// The aux trace died because the campaign is shutting down, not
			// because the DPR path is broken; abort rather than record it.
			return nil, context.Cause(ctx)
		}
		t.Metrics.revealTriggers.Inc()
		if n > 0 {
			t.Metrics.revealSuccess.Inc()
			t.Metrics.revealedHops.Add(uint64(n))
		}
		if err != nil {
			t.Metrics.revealErr.Inc()
			errs = append(errs, fmt.Sprintf("dpr %s: %v", trigger, err))
			continue
		}
		i += n // continue after the spliced region
	}
	return errs, nil
}

// directPathRevelation traces toward the trigger hop s.hops[at] and
// splices the hidden tunnel interior in front of it: the responding hops
// that precede the trigger on the auxiliary trace and are not already
// visible in the main one. Revealed hops are renumbered into the gap
// (s.hops[at-1].TTL+1, …) and every later hop is shifted past them. It
// returns how many hops it spliced. A transport failure of the auxiliary
// trace is returned as an error — distinct from "the path holds no new
// hops" (0, nil) — so the caller can record that revelation was disabled
// rather than silently classifying on an unrevealed trace.
func (t *Tracer) directPathRevelation(ctx context.Context, s *probeScratch, at int) (int, error) {
	trigger := s.hops[at].Addr
	// The auxiliary tracer deliberately keeps Retries at zero, as the
	// original DPR implementation did: giving aux traces a retry budget
	// would change fault-free probe sequences (each retry draws a fresh
	// rate-limiter coin) and with them every pinned campaign result.
	// Transport errors in the aux sweep therefore surface immediately.
	aux := Tracer{Conn: t.Conn, VP: t.VP, MaxTTL: t.MaxTTL, Metrics: t.Metrics}
	as := probeScratchPool.Get().(*probeScratch)
	defer probeScratchPool.Put(as)
	halt, errText, err := aux.sweep(ctx, as, trigger, flowPort(0))
	if err != nil {
		return 0, err
	}
	if halt == HaltError {
		return 0, fmt.Errorf("aux trace: %s", errText)
	}
	if halt != HaltReached {
		return 0, nil
	}
	// Locate the trigger in the auxiliary trace, then collect the
	// contiguous run of new hops immediately before it.
	end := -1
	for i := range as.hops {
		if as.hops[i].Addr == trigger {
			end = i
			break
		}
	}
	if end <= 0 {
		return 0, nil
	}
	start := end
	for start > 0 && as.hops[start-1].Responded() && !visible(s.hops, as.hops[start-1].Addr) {
		start--
	}
	hidden := as.hops[start:end]
	base := s.hops[at-1].TTL
	for j := range hidden {
		h := &hidden[j]
		h.Revealed = true
		h.TTL = base + 1 + j // fills the gap between s.hops[at-1] and the trigger
		h.Stack = s.stash(h.Stack)
	}
	s.hops = slices.Insert(s.hops, at, hidden...)
	// Shift the tail past the splice so TTLs stay strictly increasing.
	for k := at + len(hidden); k < len(s.hops); k++ {
		s.hops[k].TTL += len(hidden)
	}
	return len(hidden), nil
}

// visible reports whether addr answered among hops.
func visible(hops []Hop, addr netip.Addr) bool {
	for i := range hops {
		if hops[i].Addr == addr {
			return true
		}
	}
	return false
}
