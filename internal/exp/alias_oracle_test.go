package exp

import (
	"context"
	"fmt"
	"math"
	"net/netip"
	"sort"
	"testing"

	"arest/internal/asgen"
	"arest/internal/netsim"
	"arest/internal/obs"
	"arest/internal/par"
)

// aliasScore grades a campaign's alias sets against the simulator's
// router IDs, counting candidate pairs.
type aliasScore struct {
	// samples is the IP-ID probes the alias stage sent.
	samples uint64
	// candidates is the alias candidates across ASes (after the cap).
	candidates int
	// reported, correct and truth count pairs: inside reported alias sets,
	// inside reported sets and on one router, and candidate pairs on one
	// router.
	reported, correct, truth int
}

func (s aliasScore) precision() float64 {
	if s.reported == 0 {
		return 1
	}
	return float64(s.correct) / float64(s.reported)
}

func (s aliasScore) recall() float64 {
	if s.truth == 0 {
		return 1
	}
	return float64(s.correct) / float64(s.truth)
}

// scoreAliases measures every analyzed AS under cfg, with the ASes fanned
// out over GOMAXPROCS workers and each measured sequentially, and scores
// MeasureAS's alias sets against the router behind every address.
func scoreAliases(ctx context.Context, cfg Config) (aliasScore, error) {
	recs := asgen.Analyzed()
	reg := obs.New()
	cfg.Metrics = reg
	cfg.Workers = 1
	scores := make([]aliasScore, len(recs))
	errs := make([]error, len(recs))
	if err := par.ForEach(ctx, par.Workers(0), len(recs), func(i int) {
		data, err := MeasureAS(ctx, recs[i], cfg)
		if err != nil {
			errs[i] = fmt.Errorf("AS#%d: %w", recs[i].ID, err)
			return
		}
		// Rebuild the measured world for its ground truth: the build is a
		// pure function of the archived record, deployment and seed.
		w := asgen.Build(data.Meta.Record, data.Meta.Dep, cfg.NumVPs, cfg.Seed)
		router := func(a netip.Addr) (netsim.RouterID, bool) {
			r, ok := w.Net.RouterByAddr(a)
			if !ok {
				return 0, false
			}
			return r.ID, true
		}
		// The candidate set as MeasureAS builds it: every responding hop
		// address, sorted, then capped.
		seen := map[netip.Addr]bool{}
		var cands []netip.Addr
		for _, tr := range data.Traces() {
			for _, h := range tr.Hops {
				if h.Responded() && !seen[h.Addr] {
					seen[h.Addr] = true
					cands = append(cands, h.Addr)
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].Less(cands[j]) })
		cands = cands[:min(len(cands), cfg.AliasCandidateCap)]
		s := &scores[i]
		s.candidates = len(cands)
		perRouter := map[netsim.RouterID]int{}
		for _, a := range cands {
			if id, ok := router(a); ok {
				perRouter[id]++
			}
		}
		for _, k := range perRouter {
			s.truth += k * (k - 1) / 2
		}
		for _, set := range data.Aliases {
			for x := range set {
				for y := x + 1; y < len(set); y++ {
					s.reported++
					rx, okx := router(set[x])
					ry, oky := router(set[y])
					if okx && oky && rx == ry {
						s.correct++
					}
				}
			}
		}
	}); err != nil {
		return aliasScore{}, err
	}
	var total aliasScore
	for i, s := range scores {
		if errs[i] != nil {
			return aliasScore{}, errs[i]
		}
		total.candidates += s.candidates
		total.reported += s.reported
		total.correct += s.correct
		total.truth += s.truth
	}
	total.samples = reg.Snapshot().Deterministic().Counters["probe.ipid_samples"]
	return total, nil
}

// TestAliasOracle scores the default campaign's alias sets (41 analyzed
// ASes, seed 20250405, candidate cap 120) against the simulator's router
// IDs: no false pair at all, and at least 97% of the same-router candidate
// pairs found.
func TestAliasOracle(t *testing.T) {
	s, err := scoreAliases(context.Background(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("alias oracle: %d candidates, %d IP-ID samples, %d/%d reported pairs correct, %d same-router pairs",
		s.candidates, s.samples, s.correct, s.reported, s.truth)
	if s.truth == 0 {
		t.Fatal("no same-router candidate pairs to score")
	}
	if s.precision() != 1 {
		t.Errorf("precision = %.4f (%d false pairs), want 1", s.precision(), s.reported-s.correct)
	}
	if s.recall() < 0.97 {
		t.Errorf("recall = %.4f (%d/%d), want >= 0.97", s.recall(), s.correct, s.truth)
	}
}

// BenchmarkAliasCandidateCap traces the candidate-cap curve: the default
// campaign measured at caps 60, 120, 480 and uncapped, reporting the alias
// stage's IP-ID samples with its precision and recall against the
// simulator's router IDs.
func BenchmarkAliasCandidateCap(b *testing.B) {
	for _, c := range []struct {
		name string
		cap  int
	}{{"cap-60", 60}, {"cap-120", 120}, {"cap-480", 480}, {"uncapped", math.MaxInt}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.AliasCandidateCap = c.cap
			var s aliasScore
			for i := 0; i < b.N; i++ {
				var err error
				if s, err = scoreAliases(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.samples), "ipid_samples/op")
			b.ReportMetric(float64(s.candidates), "candidates/op")
			b.ReportMetric(s.precision(), "precision")
			b.ReportMetric(s.recall(), "recall")
		})
	}
}
