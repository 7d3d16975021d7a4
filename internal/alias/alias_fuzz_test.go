package alias

import (
	"context"
	"errors"
	"net/netip"
	"reflect"
	"testing"

	"arest/internal/probe"
)

// scriptProber serves IP-IDs from scripted counters. Each address sits on
// one counter (base, stride 1–8) and may carry a loss bit (every third
// sample goes unanswered) and an error bit (every sample from seq
// errAfter on fails). Loss and errors are pure functions of (address,
// seq), and a counter only advances under Resolve's per-counter
// serialization, so a run is deterministic at any worker count.
type scriptProber struct {
	counter  map[netip.Addr]int
	lossy    map[netip.Addr]bool
	errAfter map[netip.Addr]uint32
	value    []uint16
	stride   []uint16
}

func (s *scriptProber) SampleIPID(ctx context.Context, dst netip.Addr, seq uint32) (probe.IPIDSample, bool, error) {
	c, ok := s.counter[dst]
	if !ok {
		return probe.IPIDSample{}, false, nil
	}
	if at, bad := s.errAfter[dst]; bad && seq >= at {
		return probe.IPIDSample{}, false, errTransport
	}
	s.value[c] += s.stride[c]
	if s.lossy[dst] && seq%3 == 0 {
		return probe.IPIDSample{}, false, nil
	}
	return probe.IPIDSample{ID: s.value[c], ReplyTTL: 250}, true, nil
}

// scriptFrom decodes fuzz bytes into a candidate list, a fresh prober and
// the counter oracle. Layout: byte 0 picks 2–9 addresses and byte 1 1–4
// counters; each counter then takes 3 bytes (base hi, base lo, stride),
// each address 2 (counter, flags: bit 0 loss, bit 1 error, bits 2-7 the
// error onset in units of 2 seqs). Missing bytes read as zero.
func scriptFrom(b []byte) ([]netip.Addr, *scriptProber, func(netip.Addr) (uint64, bool)) {
	at := func(i int) byte {
		if i < len(b) {
			return b[i]
		}
		return 0
	}
	nAddrs, nCtrs := 2+int(at(0))%8, 1+int(at(1))%4
	p := &scriptProber{
		counter:  map[netip.Addr]int{},
		lossy:    map[netip.Addr]bool{},
		errAfter: map[netip.Addr]uint32{},
		value:    make([]uint16, nCtrs),
		stride:   make([]uint16, nCtrs),
	}
	off := 2
	for c := 0; c < nCtrs; c++ {
		p.value[c] = uint16(at(off))<<8 | uint16(at(off+1))
		p.stride[c] = 1 + uint16(at(off+2))%8
		off += 3
	}
	addrs := make([]netip.Addr, nAddrs)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
		p.counter[addrs[i]] = int(at(off)) % nCtrs
		flags := at(off + 1)
		p.lossy[addrs[i]] = flags&1 != 0
		if flags&2 != 0 {
			p.errAfter[addrs[i]] = 2 * uint32(flags>>2)
		}
		off += 2
	}
	key := func(a netip.Addr) (uint64, bool) {
		c, ok := p.counter[a]
		return uint64(c), ok
	}
	return addrs, p, key
}

// FuzzResolve runs scripted counters through Resolve at 1 and 4 workers:
// no panic, equal sets and errors, and a valid partition of the
// candidates (disjoint, sorted, every set with at least two members).
func FuzzResolve(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 1, 0x10, 0, 2, 0x90, 0, 5, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0})
	f.Add([]byte{6, 3, 0xff, 0xf0, 7, 0, 1, 0, 0x80, 0, 3, 0x40, 0, 1,
		0, 2, 1, 0, 2, 1, 3, 6, 0, 9, 1, 0, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		run := func(workers int) ([]netip.Addr, [][]netip.Addr, error) {
			addrs, p, key := scriptFrom(b)
			cfg := DefaultConfig()
			cfg.Workers = workers
			cfg.ConflictKey = key
			sets, err := Resolve(context.Background(), addrs, p, cfg)
			return addrs, sets, err
		}
		addrs, seq, seqErr := run(1)
		_, parl, parErr := run(4)
		if !reflect.DeepEqual(seq, parl) {
			t.Fatalf("sets diverge across workers:\nseq = %v\npar = %v", seq, parl)
		}
		if (seqErr == nil) != (parErr == nil) || (seqErr != nil && seqErr.Error() != parErr.Error()) {
			t.Fatalf("errors diverge across workers: %v vs %v", seqErr, parErr)
		}
		if seqErr != nil && !errors.Is(seqErr, errTransport) {
			t.Fatalf("err = %v, want it to wrap the transport error", seqErr)
		}
		cand := map[netip.Addr]bool{}
		for _, a := range addrs {
			cand[a] = true
		}
		seen := map[netip.Addr]bool{}
		for i, set := range seq {
			if len(set) < 2 {
				t.Fatalf("set %v has fewer than two members", set)
			}
			if i > 0 && !seq[i-1][0].Less(set[0]) {
				t.Fatalf("sets out of order: %v", seq)
			}
			for j, a := range set {
				if !cand[a] {
					t.Fatalf("set %v holds non-candidate %s", set, a)
				}
				if seen[a] {
					t.Fatalf("%s appears in two sets: %v", a, seq)
				}
				seen[a] = true
				if j > 0 && !set[j-1].Less(a) {
					t.Fatalf("set %v not sorted", set)
				}
			}
		}
	})
}
