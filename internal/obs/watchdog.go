package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Watchdog detects stalled pipeline work from heartbeat recency. It is the
// wall-clock half of the campaign's deadline story (DESIGN.md §14): budgets
// inside the determinism contract are probe-count based and replayable,
// while the watchdog lives here in obs — outside the contract, on the same
// injectable clock as Spans — and turns "this AS has made no progress for
// StallAfter" into a cancellation instead of a hung campaign.
//
// Each supervised unit of work registers a Heartbeat and calls Beat as it
// makes progress (one beat per trace job, one per analysis batch). Scan
// compares every live heartbeat against the clock and fires the unit's
// onStall callback exactly once when it goes quiet for longer than
// StallAfter. Scan is normally driven by the ticker goroutine Start spawns,
// but is exported on its own so tests drive stall detection with a fake
// clock and zero sleeps.
//
// Counters (registered as watchdog.heartbeats / watchdog.stalls when the
// watchdog is made, so both are listed from the start): the heartbeat
// count is one per unit of pipeline progress and therefore deterministic
// across worker counts; the stall count is deterministic given a
// deterministic scan schedule (tests), and wall-clock dependent in
// production by design.
//
// Like every obs instrument, a nil *Watchdog and a nil *Heartbeat are
// valid no-ops, so supervised code paths beat unconditionally.
type Watchdog struct {
	clock      func() time.Time
	stallAfter time.Duration
	// heartbeats and stalls are resolved once, so a Beat costs two atomic
	// operations and no registry lookup.
	heartbeats, stalls *Counter

	mu    sync.Mutex
	tasks map[*Heartbeat]struct{}
}

// Heartbeat is one supervised unit's progress pulse, created by
// Watchdog.Register and retired by Done.
type Heartbeat struct {
	w       *Watchdog
	name    string
	onStall func()
	last    atomic.Int64 // clock reading at the latest Beat, unix nanos
	stalled atomic.Bool
}

// NewWatchdog returns a watchdog reading the registry's clock (the real
// clock when reg is nil or was built by New without SetClock). stallAfter
// <= 0 disables stall detection: heartbeats are still counted but Scan
// never fires. Construct the watchdog after any SetClock call on reg.
func NewWatchdog(reg *Registry, stallAfter time.Duration) *Watchdog {
	clock := time.Now
	if reg != nil && reg.clock != nil {
		clock = reg.clock
	}
	return &Watchdog{
		clock:      clock,
		stallAfter: stallAfter,
		heartbeats: reg.Counter("watchdog", "heartbeats"),
		stalls:     reg.Counter("watchdog", "stalls"),
		tasks:      make(map[*Heartbeat]struct{}),
	}
}

// Register adds a supervised unit and returns its heartbeat, already
// beaten once (registration is progress). onStall runs at most once, from
// whichever goroutine calls the Scan that detects the stall; it must be
// safe to call concurrently with the unit's own work — cancelling a
// context is the intended shape. Nil-safe: a nil watchdog returns a nil
// (no-op) heartbeat.
func (w *Watchdog) Register(name string, onStall func()) *Heartbeat {
	if w == nil {
		return nil
	}
	h := &Heartbeat{w: w, name: name, onStall: onStall}
	h.last.Store(w.clock().UnixNano())
	w.mu.Lock()
	w.tasks[h] = struct{}{}
	w.mu.Unlock()
	return h
}

// Beat records progress: it refreshes the stall deadline and increments
// watchdog.heartbeats. No-op on nil.
func (h *Heartbeat) Beat() {
	if h == nil {
		return
	}
	h.last.Store(h.w.clock().UnixNano())
	h.w.heartbeats.Inc()
}

// Done retires the heartbeat: the unit finished (or was quarantined) and
// must no longer be scanned. No-op on nil.
func (h *Heartbeat) Done() {
	if h == nil {
		return
	}
	h.w.mu.Lock()
	delete(h.w.tasks, h)
	h.w.mu.Unlock()
}

// Scan checks every live heartbeat against the clock and fires onStall for
// each one quiet for longer than StallAfter, incrementing watchdog.stalls
// per newly stalled unit. Repeated scans never re-fire a stalled unit.
// Returns the number of stalls detected by this scan (0 on nil watchdog or
// disabled stall detection).
func (w *Watchdog) Scan() int {
	if w == nil || w.stallAfter <= 0 {
		return 0
	}
	now := w.clock().UnixNano()
	w.mu.Lock()
	var quiet []*Heartbeat
	for h := range w.tasks {
		if !h.stalled.Load() && now-h.last.Load() > w.stallAfter.Nanoseconds() {
			quiet = append(quiet, h)
		}
	}
	w.mu.Unlock()
	// Fire outside the lock (onStall may call back into Done) and in name
	// order so multi-stall scans are reproducible.
	sort.Slice(quiet, func(i, j int) bool { return quiet[i].name < quiet[j].name })
	stalls := 0
	for _, h := range quiet {
		if h.stalled.CompareAndSwap(false, true) {
			stalls++
			w.stalls.Inc()
			if h.onStall != nil {
				h.onStall()
			}
		}
	}
	return stalls
}

// Start spawns the scanning goroutine on a real ticker and returns its
// stop function. interval <= 0 defaults to a quarter of StallAfter, so a
// stall is detected within ~1.25x the configured quiet period. Nil-safe:
// a nil or disabled watchdog returns a no-op stop.
func (w *Watchdog) Start(interval time.Duration) (stop func()) {
	if w == nil || w.stallAfter <= 0 {
		return func() {}
	}
	if interval <= 0 {
		interval = w.stallAfter / 4
	}
	if interval <= 0 {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				w.Scan()
			}
		}
	}()
	return func() {
		tick.Stop()
		close(quit)
		wg.Wait()
	}
}
