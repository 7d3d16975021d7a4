package netsim

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"arest/internal/pkt"
)

// sendJob is one probe of the concurrency tests' shared workload.
type sendJob struct {
	dst   netip.Addr
	ttl   uint8
	dport uint16
}

func concurrencyJobs(c *chain) []sendJob {
	var jobs []sendJob
	dsts := []netip.Addr{c.target, c.pe2.Loopback, c.ps[1].Loopback}
	for _, dst := range dsts {
		for dport := uint16(33434); dport < 33434+6; dport++ {
			for ttl := uint8(1); ttl <= 8; ttl++ {
				jobs = append(jobs, sendJob{dst, ttl, dport})
			}
		}
	}
	return jobs
}

// normalizeReply renders a reply with its IP-ID zeroed: the ID is the one
// field whose value depends on probe interleaving (it reads the router's
// shared counter), while everything else must be schedule-independent.
func normalizeReply(t *testing.T, b []byte) string {
	t.Helper()
	if b == nil {
		return "<none>"
	}
	var ip pkt.IPv4
	if err := pkt.UnmarshalIPv4Into(&ip, b); err != nil {
		t.Fatalf("bad reply: %v", err)
	}
	ip.ID = 0
	nb, err := ip.AppendMarshal(nil)
	if err != nil {
		t.Fatalf("re-marshal reply: %v", err)
	}
	return fmt.Sprintf("%x", nb)
}

// TestConcurrentSendMatchesSequential runs the same probe workload
// sequentially on one network and concurrently on an identically built one,
// and requires (a) every reply identical modulo the IP-ID field and (b) the
// final IP-ID counter state of every router identical — the commutativity
// guarantee the parallel campaign rests on. Under -race this doubles as the
// concurrent-Send data-race check.
func TestConcurrentSendMatchesSequential(t *testing.T) {
	seqC, parC := buildChain(t), buildChain(t)
	jobs := concurrencyJobs(seqC)

	seqReplies := make([]string, len(jobs))
	for i, j := range jobs {
		d, err := seqC.net.Send(seqC.vp, udpProbe(seqC.vp, j.dst, j.ttl, j.dport), nil)
		if err != nil {
			t.Fatalf("sequential send %d: %v", i, err)
		}
		seqReplies[i] = normalizeReply(t, d.Reply)
	}

	parReplies := make([]string, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += 8 {
				j := jobs[i]
				d, err := parC.net.Send(parC.vp, udpProbe(parC.vp, j.dst, j.ttl, j.dport), nil)
				if err != nil {
					t.Errorf("concurrent send %d: %v", i, err)
					return
				}
				parReplies[i] = normalizeReply(t, d.Reply)
			}
		}(w)
	}
	wg.Wait()

	for i := range jobs {
		if seqReplies[i] != parReplies[i] {
			t.Errorf("probe %d (%s ttl=%d dport=%d): reply diverged\nseq = %s\npar = %s",
				i, jobs[i].dst, jobs[i].ttl, jobs[i].dport, seqReplies[i], parReplies[i])
		}
	}
	for i, sr := range seqC.net.Routers() {
		pr := parC.net.Routers()[i]
		if got, want := pr.ipIDCount.Load(), sr.ipIDCount.Load(); got != want {
			t.Errorf("router %s: concurrent run bumped IP-ID counter %d times, sequential %d",
				sr.Name, got, want)
		}
	}
}

// TestConcurrentSendStress hammers one shared Network from many goroutines
// with overlapping flows; run under -race it verifies Send's read-only
// control-plane contract, and every delivery must still parse.
func TestConcurrentSendStress(t *testing.T) {
	c := buildChain(t, withInterior(5))
	jobs := concurrencyJobs(c)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				d, err := c.net.Send(c.vp, udpProbe(c.vp, j.dst, j.ttl, j.dport), nil)
				if err != nil {
					t.Errorf("send: %v", err)
					return
				}
				if d.Reply != nil {
					var ip pkt.IPv4
					if err := pkt.UnmarshalIPv4Into(&ip, d.Reply); err != nil {
						t.Errorf("mangled reply: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
