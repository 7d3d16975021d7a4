// Package alias resolves router aliases — which interface addresses belong
// to the same physical router — with the two techniques the paper combines:
// MIDAR's IP-ID monotonic bounds test over the router's shared IP-ID
// counter, pruned by an APPLE-style path-length estimation filter.
//
// Resolution follows MIDAR's three stages (Keys et al., "Internet-Scale
// IPv4 Alias Resolution with MIDAR", ToN 2013):
//
//  1. Estimation samples every candidate in round-robin passes.
//  2. Discovery runs the bounds test offline, over each APPLE-surviving
//     pair's estimation samples, and sends no probes.
//  3. Corroboration re-tests only the discovery survivors with dedicated
//     interleaved samples.
//
// Probing is therefore linear in the candidates plus the (few) plausible
// pairs, instead of quadratic in the candidates.
package alias

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sort"

	"arest/internal/obs"
	"arest/internal/par"
	"arest/internal/probe"
)

// Prober samples IP-IDs from candidate interfaces; probe.Tracer implements
// it. seq distinguishes successive samples so each probe carries a distinct
// IP-ID; implementations must be safe for concurrent use.
type Prober interface {
	SampleIPID(ctx context.Context, dst netip.Addr, seq uint32) (probe.IPIDSample, bool, error)
}

// Config tunes the resolution pipeline.
type Config struct {
	// Rounds is the number of estimation passes over the candidates and
	// the number of interleaved sample rounds per corroboration test.
	Rounds int
	// MaxStep is the largest credible IP-ID advance between consecutive
	// samples of a shared counter (MIDAR's velocity bound).
	MaxStep uint16
	// PathLenSlack is the APPLE pruning tolerance on estimated return
	// path lengths.
	PathLenSlack int
	// Workers bounds the probing concurrency (0 = GOMAXPROCS, 1 =
	// sequential). Parallel runs produce the same alias sets as
	// sequential ones: see ConflictKey.
	Workers int
	// ConflictKey, when set, names the shared IP-ID counter behind an
	// address (e.g. the simulated router's ID). Estimation samples and
	// corroboration tests that touch disjoint counters run in parallel;
	// those sharing a counter are serialized in schedule order, so every
	// counter sees the same probe subsequence as a sequential run and the
	// observed IP-ID sequences are identical. Addresses with ok=false —
	// and all addresses when ConflictKey is nil — fall into one shared
	// bucket and are serialized against each other (always correct,
	// merely less parallel).
	ConflictKey func(a netip.Addr) (key uint64, ok bool)
	// Metrics, when non-nil, receives "alias" stage instruments: candidate
	// and pair accounting plus the conflict-queue depth. Every recorded
	// value is a pure function of the candidate set, so the counters sit
	// inside the determinism contract.
	Metrics *obs.Registry
}

// DefaultConfig mirrors conservative MIDAR settings.
func DefaultConfig() Config {
	return Config{Rounds: 4, MaxStep: 2048, PathLenSlack: 1}
}

// minReplies is the fewest replies a counter must return — per candidate
// in estimation, per side in corroboration — before the bounds test may
// judge it: a single sample shows no counter motion at all.
const minReplies = 2

// sample is one answered IP-ID probe, placed by its sequence number.
type sample struct {
	seq uint32
	id  uint16
}

type candidate struct {
	addr    netip.Addr
	key     uint64 // conflict key of the counter behind addr
	pathLen int
	// samples are the candidate's estimation replies in schedule order.
	samples []sample
}

// estimate is one estimation probe's outcome.
type estimate struct {
	s   probe.IPIDSample
	ok  bool
	err error
}

// Resolve returns alias sets (routers) among the candidate addresses. Only
// sets with two or more members are reported. The result is independent of
// cfg.Workers: every probe's bytes are a pure function of (address, seq),
// and the conflict-ordered schedules replay the sequential probe order on
// every shared counter.
//
// A non-response is a lost sample: it is skipped, and a candidate (or a
// corroboration side) is judged once it has answered at least twice. A
// transport error from the Prober is not a non-response: an errored sample
// means the measurement channel failed, and treating it as "silent router"
// would silently mispartition routers. Errored candidates and pairs are
// recorded distinctly (alias.sample_errors / alias.pairs.errored
// counters), excluded from the partition rather than folded into it, and
// reported through the returned error — deterministically, as the first
// error in index order — alongside the partition of the probes that did
// succeed. Callers that need a trustworthy partition must treat a non-nil
// error as fatal for the measurement.
//
// Cancelling ctx aborts resolution at the next sample boundary and returns
// (nil, cause): a cancelled run yields no partition at all, never a partial
// one that could be mistaken for "these probes went unanswered".
func Resolve(ctx context.Context, addrs []netip.Addr, p Prober, cfg Config) ([][]netip.Addr, error) {
	if cfg.Rounds == 0 {
		cfg = DefaultConfig()
	}
	workers := par.Workers(cfg.Workers)
	n := len(addrs)

	// keys[i] buckets addrs[i] by the shared counter behind it; bucket 0
	// collects addresses the oracle cannot place (and everything, when
	// there is no oracle).
	keys := make([][]uint64, n)
	for i, a := range addrs {
		keys[i] = []uint64{0}
		if cfg.ConflictKey != nil {
			if k, ok := cfg.ConflictKey(a); ok {
				keys[i][0] = k + 1
			}
		}
	}
	// queueDepth records the conflict-queue depth of a static schedule:
	// its longest per-counter serialization chain. Both schedules are
	// fixed before they run, so the gauge is deterministic at any worker
	// count.
	depth := cfg.Metrics.Gauge("alias", "conflict_queue.depth")
	queueDepth := func(tasks int, keysOf func(t int) []uint64) {
		if depth == nil {
			return
		}
		perKey := map[uint64]uint64{}
		for t := 0; t < tasks; t++ {
			ks := keysOf(t)
			for i, k := range ks {
				if !slices.Contains(ks[:i], k) {
					perKey[k]++
				}
			}
		}
		for _, d := range perKey {
			depth.SetMax(d)
		}
	}

	// Stage 1, estimation: cfg.Rounds round-robin passes; task t samples
	// addrs[t%n] with seq t, so round 0 is the classic one-probe
	// estimation. Serializing per counter keeps every counter's probe
	// order — and hence every observed IP-ID — sequential.
	ests := make([]estimate, cfg.Rounds*n)
	estKeys := func(t int) []uint64 { return keys[t%n] }
	queueDepth(len(ests), estKeys)
	if err := par.ConflictOrdered(ctx, workers, len(ests), estKeys,
		func(t int) {
			e := &ests[t]
			e.s, e.ok, e.err = p.SampleIPID(ctx, addrs[t%n], uint32(t))
		}); err != nil {
		return nil, err
	}
	sampleErrs := uint64(0)
	var firstErr error
	cands := make([]candidate, 0, n)
	for i, a := range addrs {
		c := candidate{addr: a, key: keys[i][0]}
		var candErr error
		for r := 0; r < cfg.Rounds; r++ {
			t := r*n + i
			e := ests[t]
			switch {
			case e.err != nil:
				if candErr == nil {
					candErr = e.err
				}
			case e.ok:
				if len(c.samples) == 0 {
					// APPLE: the first reply's TTL gives the return path
					// length.
					c.pathLen = int(probe.InferInitialTTL(e.s.ReplyTTL)) - int(e.s.ReplyTTL)
				}
				c.samples = append(c.samples, sample{seq: uint32(t), id: e.s.ID})
			}
		}
		if candErr != nil {
			sampleErrs++
			if firstErr == nil {
				firstErr = fmt.Errorf("estimate %s: %w", a, candErr)
			}
			continue
		}
		if len(c.samples) >= minReplies {
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].addr.Less(cands[j].addr) })
	cfg.Metrics.Counter("alias", "candidates").Add(uint64(n))
	cfg.Metrics.Counter("alias", "responsive").Add(uint64(len(cands)))
	cfg.Metrics.Counter("alias", "sample_errors").Add(sampleErrs)

	// Stage 2, discovery: every APPLE-surviving pair, in lexicographic
	// order, gets the bounds test over its two candidates' estimation
	// samples merged in schedule order. No probes are sent, and a pair
	// that fails is never probed again.
	type pairTest struct{ i, j int }
	var pairs []pairTest
	pruned, rejected := uint64(0), uint64(0)
	merged := make([]uint16, 0, 2*cfg.Rounds)
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			// APPLE pruning: interfaces of one router sit at (nearly) the
			// same return distance.
			d := cands[i].pathLen - cands[j].pathLen
			if d < 0 {
				d = -d
			}
			if d > cfg.PathLenSlack {
				pruned++
				continue
			}
			merged = mergeIDs(merged[:0], cands[i].samples, cands[j].samples)
			if !monotonic(merged, cfg.MaxStep) {
				rejected++
				continue
			}
			pairs = append(pairs, pairTest{i, j})
		}
	}
	cfg.Metrics.Counter("alias", "pairs.apple_pruned").Add(pruned)
	cfg.Metrics.Counter("alias", "pairs.mbt_rejected").Add(rejected)
	cfg.Metrics.Counter("alias", "pairs.tested").Add(uint64(len(pairs)))

	// Stage 3, corroboration: each discovery survivor gets its own
	// interleaved test. Each test consumes 2*Rounds sequence numbers;
	// bases start after the estimation range so no (addr, seq) coordinate
	// repeats.
	seqBase := func(pairIdx int) uint32 {
		return uint32(len(ests) + pairIdx*2*cfg.Rounds)
	}
	pairKeys := func(t int) []uint64 {
		return []uint64{cands[pairs[t].i].key, cands[pairs[t].j].key}
	}
	queueDepth(len(pairs), pairKeys)
	aliased := make([]bool, len(pairs))
	pairErrs := make([]error, len(pairs))
	if err := par.ConflictOrdered(ctx, workers, len(pairs), pairKeys, func(t int) {
		ok, err := sharedCounter(ctx, cands[pairs[t].i].addr, cands[pairs[t].j].addr,
			p, cfg, seqBase(t))
		if err != nil {
			// An errored pair is neither aliased nor refuted: it is
			// excluded from the union-find and surfaced to the caller.
			pairErrs[t] = err
			return
		}
		aliased[t] = ok
	}); err != nil {
		return nil, err
	}
	pairErrCount := uint64(0)
	for t, e := range pairErrs {
		if e == nil {
			continue
		}
		pairErrCount++
		if firstErr == nil {
			firstErr = fmt.Errorf("pair (%s, %s): %w",
				cands[pairs[t].i].addr, cands[pairs[t].j].addr, e)
		}
	}
	cfg.Metrics.Counter("alias", "pairs.errored").Add(pairErrCount)

	// Union-find over the corroborated pairs (order-independent: union is
	// commutative on the final partition).
	parent := make([]int, len(cands))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	confirmed := uint64(0)
	for t, ok := range aliased {
		if ok {
			confirmed++
			parent[find(pairs[t].i)] = find(pairs[t].j)
		}
	}
	cfg.Metrics.Counter("alias", "pairs.aliased").Add(confirmed)
	groups := make(map[int][]netip.Addr)
	for i, c := range cands {
		r := find(i)
		groups[r] = append(groups[r], c.addr)
	}
	var out [][]netip.Addr
	for _, g := range groups {
		if len(g) >= 2 {
			sort.Slice(g, func(i, j int) bool { return g[i].Less(g[j]) })
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Less(out[j][0]) })
	if errs := sampleErrs + pairErrCount; errs > 0 {
		return out, fmt.Errorf("alias: %d probe errors (first: %w)", errs, firstErr)
	}
	return out, nil
}

// mergeIDs appends the IP-IDs of two sample lists, each in schedule order,
// to dst in merged schedule order.
func mergeIDs(dst []uint16, a, b []sample) []uint16 {
	for len(a) > 0 && len(b) > 0 {
		if a[0].seq < b[0].seq {
			dst, a = append(dst, a[0].id), a[1:]
		} else {
			dst, b = append(dst, b[0].id), b[1:]
		}
	}
	for _, s := range a {
		dst = append(dst, s.id)
	}
	for _, s := range b {
		dst = append(dst, s.id)
	}
	return dst
}

// monotonic is the monotonic bounds test over IP-IDs in probe order: a
// shared counter yields a strictly increasing sequence with small steps,
// while independent counters almost surely violate the bound at some step.
// uint16 arithmetic handles wraparound.
func monotonic(ids []uint16, maxStep uint16) bool {
	for i := 1; i < len(ids); i++ {
		step := ids[i] - ids[i-1]
		if step == 0 || step > maxStep {
			return false
		}
	}
	return true
}

// sharedCounter is the corroboration test: cfg.Rounds rounds of
// interleaved samples of the two addresses, judged by the monotonic bounds
// test. Lost samples are skipped; a side with fewer than minReplies
// replies cannot be judged and refutes nothing — it just doesn't alias.
// seqBase numbers the samples within the resolution run's global sequence
// space. A transport error is returned as such: it says nothing about
// whether the counters are shared.
func sharedCounter(ctx context.Context, a, b netip.Addr, p Prober, cfg Config, seqBase uint32) (bool, error) {
	ids := make([]uint16, 0, 2*cfg.Rounds)
	var replies [2]int
	k := seqBase
	for r := 0; r < cfg.Rounds; r++ {
		for side, addr := range [2]netip.Addr{a, b} {
			s, ok, err := p.SampleIPID(ctx, addr, k)
			k++
			if err != nil {
				return false, fmt.Errorf("sample %s: %w", addr, err)
			}
			if ok {
				replies[side]++
				ids = append(ids, s.ID)
			}
		}
	}
	if replies[0] < minReplies || replies[1] < minReplies {
		return false, nil
	}
	return monotonic(ids, cfg.MaxStep), nil
}
