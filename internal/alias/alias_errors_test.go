package alias

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"arest/internal/obs"
	"arest/internal/probe"
)

var errTransport = errors.New("socket gone")

// errProber wraps a fakeProber and fails samples of one address, starting
// at a configurable sequence number (so a test can let the estimation
// stage succeed and break only the pair stage).
type errProber struct {
	inner    *fakeProber
	bad      netip.Addr
	afterSeq uint32
}

func (e *errProber) SampleIPID(ctx context.Context, dst netip.Addr, seq uint32) (probe.IPIDSample, bool, error) {
	if dst == e.bad && seq >= e.afterSeq {
		return probe.IPIDSample{}, false, errTransport
	}
	return e.inner.SampleIPID(ctx, dst, seq)
}

// aliasCounter reads one "alias" stage counter from the registry snapshot.
func aliasCounter(reg *obs.Registry, name string) uint64 {
	return reg.Snapshot().Deterministic().Counters["alias."+name]
}

func TestResolveSurfacesEstimationErrors(t *testing.T) {
	// Two addresses share a counter; a third errors on every sample of
	// every estimation round. The partition of the healthy probes must
	// still come back, alongside an error naming the failure — never a
	// silent "unresponsive" downgrade — and the errored candidate counts
	// once, not once per round.
	f := sharedProber(100, a("10.0.0.1"), a("10.0.0.2"))
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	sets, err := Resolve(context.Background(), []netip.Addr{a("10.0.0.1"), a("10.0.0.2"), a("10.0.0.3")},
		&errProber{inner: f, bad: a("10.0.0.3")}, cfg)
	if err == nil {
		t.Fatal("Resolve swallowed the sample error")
	}
	if !errors.Is(err, errTransport) {
		t.Errorf("err = %v, want it to wrap the transport error", err)
	}
	if !strings.Contains(err.Error(), "estimate 10.0.0.3") {
		t.Errorf("err = %v, want it to name the errored candidate", err)
	}
	want := [][]netip.Addr{{a("10.0.0.1"), a("10.0.0.2")}}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("sets = %v, want %v (healthy pair still resolved)", sets, want)
	}
	if got := aliasCounter(reg, "sample_errors"); got != 1 {
		t.Errorf("sample_errors = %d, want 1", got)
	}
}

func TestResolveExcludesErroredPairs(t *testing.T) {
	// All three candidates share one counter, so estimation and discovery
	// pass every pair; the third then errors in corroboration (whose
	// sequence numbers start after the Rounds*len(addrs) estimation
	// range). Pairs touching it must be excluded from the union-find — not
	// treated as refuted or aliased — while the healthy pair still
	// resolves.
	addrs := []netip.Addr{a("10.0.0.1"), a("10.0.0.2"), a("10.0.0.3")}
	f := sharedProber(100, addrs...)
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	estimation := uint32(cfg.Rounds * len(addrs))
	sets, err := Resolve(context.Background(), addrs,
		&errProber{inner: f, bad: a("10.0.0.3"), afterSeq: estimation}, cfg)
	if err == nil {
		t.Fatal("Resolve swallowed the pair errors")
	}
	if !errors.Is(err, errTransport) {
		t.Errorf("err = %v, want it to wrap the transport error", err)
	}
	// The first errored pair in index order is (10.0.0.1, 10.0.0.3).
	if !strings.Contains(err.Error(), "pair (10.0.0.1, 10.0.0.3)") {
		t.Errorf("err = %v, want the first errored pair named deterministically", err)
	}
	if !strings.Contains(err.Error(), "2 probe errors") {
		t.Errorf("err = %v, want the total errored-probe count", err)
	}
	want := [][]netip.Addr{{a("10.0.0.1"), a("10.0.0.2")}}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("sets = %v, want %v", sets, want)
	}
	if got := aliasCounter(reg, "pairs.errored"); got != 2 {
		t.Errorf("pairs.errored = %d, want 2", got)
	}
	if got := aliasCounter(reg, "sample_errors"); got != 0 {
		t.Errorf("sample_errors = %d, want 0", got)
	}
	if got := aliasCounter(reg, "pairs.tested"); got != 3 {
		t.Errorf("pairs.tested = %d, want all 3 pairs corroborated", got)
	}
}

// lossProber wraps a fakeProber and drops the replies to the listed
// sequence numbers: the probe goes out (the counter advances) but no
// answer comes back.
type lossProber struct {
	inner *fakeProber
	lost  map[uint32]bool
}

func (l *lossProber) SampleIPID(ctx context.Context, dst netip.Addr, seq uint32) (probe.IPIDSample, bool, error) {
	s, ok, err := l.inner.SampleIPID(ctx, dst, seq)
	if l.lost[seq] {
		return probe.IPIDSample{}, false, nil
	}
	return s, ok, err
}

func TestResolveToleratesLoss(t *testing.T) {
	// A shared-counter pair that loses one reply in estimation and one in
	// corroboration still aliases: a lost sample is skipped, not taken as
	// evidence against the pair. With two addresses and 4 rounds,
	// estimation spans seqs 0-7 (seq 3 is 10.0.0.2's second sample) and
	// corroboration starts at seq 8 (seq 9 is 10.0.0.2's first sample).
	f := sharedProber(100, a("10.0.0.1"), a("10.0.0.2"))
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	sets := mustResolve(t, []netip.Addr{a("10.0.0.1"), a("10.0.0.2")},
		&lossProber{inner: f, lost: map[uint32]bool{3: true, 9: true}}, cfg)
	want := [][]netip.Addr{{a("10.0.0.1"), a("10.0.0.2")}}
	if !reflect.DeepEqual(sets, want) {
		t.Errorf("sets = %v, want %v despite one lost reply per stage", sets, want)
	}
	if got := aliasCounter(reg, "pairs.aliased"); got != 1 {
		t.Errorf("pairs.aliased = %d, want 1", got)
	}
}

func TestResolveNeedsTwoReplies(t *testing.T) {
	// A candidate that answers only once in estimation shows no counter
	// motion: it is dropped as unresponsive rather than tested.
	f := sharedProber(100, a("10.0.0.1"), a("10.0.0.2"))
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	// 10.0.0.2 samples at seqs 1, 3, 5, 7: keep only seq 1.
	sets := mustResolve(t, []netip.Addr{a("10.0.0.1"), a("10.0.0.2")},
		&lossProber{inner: f, lost: map[uint32]bool{3: true, 5: true, 7: true}}, cfg)
	if len(sets) != 0 {
		t.Errorf("sets = %v, want none", sets)
	}
	if got := aliasCounter(reg, "responsive"); got != 1 {
		t.Errorf("responsive = %d, want 1", got)
	}
}

func TestResolveDiscoveryRejectsWithoutProbing(t *testing.T) {
	// Independent counters fail the bounds test over their estimation
	// samples, so discovery rejects the pair and corroboration sends no
	// probe for it: the prober sees exactly Rounds samples per address.
	ctr1, ctr2 := uint16(0), uint16(30000)
	f := &fakeProber{
		ids:  map[netip.Addr]*uint16{a("10.0.0.1"): &ctr1, a("10.0.0.2"): &ctr2},
		step: map[netip.Addr]uint16{a("10.0.0.1"): 3, a("10.0.0.2"): 3},
		ttl:  map[netip.Addr]uint8{},
	}
	reg := obs.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	sets := mustResolve(t, []netip.Addr{a("10.0.0.1"), a("10.0.0.2")}, f, cfg)
	if len(sets) != 0 {
		t.Errorf("independent counters aliased: %v", sets)
	}
	if got := aliasCounter(reg, "pairs.mbt_rejected"); got != 1 {
		t.Errorf("pairs.mbt_rejected = %d, want 1", got)
	}
	if got := aliasCounter(reg, "pairs.tested"); got != 0 {
		t.Errorf("pairs.tested = %d, want 0", got)
	}
	if want := uint16(cfg.Rounds * 3); ctr1 != want {
		t.Errorf("10.0.0.1 sampled %d times, want %d (estimation only)", ctr1/3, cfg.Rounds)
	}
}
