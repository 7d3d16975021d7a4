package obs

import (
	"sync"
	"testing"
	"time"

	"arest/internal/testrace"
)

// fakeClock is a mutex-guarded manual clock for driving Scan without sleeps.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestWatchdogStallDetection(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	reg := New()
	reg.SetClock(clk.Now)
	wd := NewWatchdog(reg, 10*time.Second)

	stalled := map[string]int{}
	a := wd.Register("as.001", func() { stalled["as.001"]++ })
	b := wd.Register("as.002", func() { stalled["as.002"]++ })

	if n := wd.Scan(); n != 0 {
		t.Fatalf("fresh heartbeats scanned as %d stalls", n)
	}

	// a keeps beating, b goes quiet: only b stalls.
	clk.Advance(6 * time.Second)
	a.Beat()
	clk.Advance(6 * time.Second)
	if n := wd.Scan(); n != 1 {
		t.Fatalf("Scan = %d stalls, want 1", n)
	}
	if stalled["as.001"] != 0 || stalled["as.002"] != 1 {
		t.Fatalf("wrong unit stalled: %v", stalled)
	}
	// a retires; a stalled unit never re-fires and a retired one never
	// fires, so an hour of silence detects nothing new.
	a.Done()
	clk.Advance(time.Hour)
	if n := wd.Scan(); n != 0 {
		t.Fatalf("re-scan fired %d stalls (retired or already-stalled units)", n)
	}
	if stalled["as.001"] != 0 || stalled["as.002"] != 1 {
		t.Fatalf("onStall fire counts wrong: %v", stalled)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["watchdog.stalls"]; got != 1 {
		t.Fatalf("watchdog.stalls = %d, want 1", got)
	}
	// Two registrations are not beats; a beat exactly once.
	if got := snap.Counters["watchdog.heartbeats"]; got != 1 {
		t.Fatalf("watchdog.heartbeats = %d, want 1", got)
	}
	_ = b
}

func TestWatchdogDisabledAndNil(t *testing.T) {
	var wd *Watchdog
	h := wd.Register("x", func() { t.Error("nil watchdog fired") })
	h.Beat()
	h.Done()
	if n := wd.Scan(); n != 0 {
		t.Fatalf("nil watchdog Scan = %d", n)
	}
	wd.Start(time.Millisecond)()

	off := NewWatchdog(nil, 0) // stallAfter <= 0: detection disabled
	g := off.Register("y", func() { t.Error("disabled watchdog fired") })
	if n := off.Scan(); n != 0 {
		t.Fatalf("disabled watchdog Scan = %d", n)
	}
	g.Done()
	off.Start(0)()
}

func TestWatchdogStartDetectsRealStall(t *testing.T) {
	wd := NewWatchdog(nil, 5*time.Millisecond)
	fired := make(chan struct{})
	var once sync.Once
	h := wd.Register("slow", func() { once.Do(func() { close(fired) }) })
	stop := wd.Start(time.Millisecond)
	defer stop()
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("ticker-driven scan never detected the stall")
	}
	h.Done()
}

// TestAllocBudgetBeat holds a heartbeat at its two atomic operations: the
// counter it increments is resolved when the watchdog is made, so a Beat
// at every trace completion and every analysis batch takes no registry
// lock and builds no key.
func TestAllocBudgetBeat(t *testing.T) {
	if testrace.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	reg := New()
	wd := NewWatchdog(reg, time.Minute)
	h := wd.Register("as.001", nil)
	defer h.Done()
	if got := testing.AllocsPerRun(200, h.Beat); got > 0 {
		t.Errorf("Beat: %.1f allocs/op, budget 0", got)
	}
	if got := reg.Snapshot().Counters["watchdog.heartbeats"]; got != 201 {
		t.Errorf("watchdog.heartbeats = %d, want 201 (one warm-up run and 200 measured)", got)
	}
}
