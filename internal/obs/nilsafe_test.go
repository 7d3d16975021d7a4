package obs

import (
	"reflect"
	"testing"
	"time"
)

// TestObsNilSafety calls every exported method of every instrument type,
// the watchdog and its heartbeats on a nil receiver: none may panic, reads
// return zeros, and Time must still run its function. This is the §8
// guarantee that lets library code record unconditionally;
// TestNilGuardDeletionCaught shows it observes the loss of any one nil
// guard.
func TestObsNilSafety(t *testing.T) {
	var r *Registry
	r.SetClock(func() time.Time { return time.Unix(0, 0) })
	if c := r.Counter("s", "r"); c != nil {
		t.Errorf("nil Registry.Counter = %v, want nil", c)
	}
	if g := r.Gauge("s", "r"); g != nil {
		t.Errorf("nil Registry.Gauge = %v, want nil", g)
	}
	if h := r.Histogram("s", "r"); h != nil {
		t.Errorf("nil Registry.Histogram = %v, want nil", h)
	}
	if sp := r.Span("s", "r"); sp != nil {
		t.Errorf("nil Registry.Span = %v, want nil", sp)
	}
	ran := false
	r.Time("s", "r", func() { ran = true })
	if !ran {
		t.Error("nil Registry.Time did not run fn")
	}
	snap := r.Snapshot()
	if snap.Schema != SchemaVersion {
		t.Errorf("nil Registry.Snapshot schema = %q, want %q", snap.Schema, SchemaVersion)
	}
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 || len(snap.Spans) != 0 {
		t.Errorf("nil Registry.Snapshot not empty: %+v", snap)
	}

	var c *Counter
	c.Add(7)
	c.Inc()
	if v := c.Value(); v != 0 {
		t.Errorf("nil Counter.Value = %d, want 0", v)
	}

	var g *Gauge
	g.SetMax(9)
	if v := g.Value(); v != 0 {
		t.Errorf("nil Gauge.Value = %d, want 0", v)
	}

	var h *Histogram
	h.Observe(3)

	var sp *Span
	done := sp.Start()
	if done == nil {
		t.Fatal("nil Span.Start returned nil func")
	}
	done()
	sp.AddDuration(time.Second)

	var w *Watchdog
	if hb := w.Register("as.001", func() { t.Error("nil Watchdog fired onStall") }); hb != nil {
		t.Errorf("nil Watchdog.Register = %v, want nil", hb)
	}
	if n := w.Scan(); n != 0 {
		t.Errorf("nil Watchdog.Scan = %d, want 0", n)
	}
	stop := w.Start(time.Millisecond)
	if stop == nil {
		t.Fatal("nil Watchdog.Start returned nil stop func")
	}
	stop()

	var hb *Heartbeat
	hb.Beat()
	hb.Done()

	// Reflection guard: if a type grows an exported method that this test
	// does not exercise, fail loudly so the nil-call list above gets
	// revisited.
	wantMethods := map[string]int{
		"Registry":  7, // SetClock Counter Gauge Histogram Span Time Snapshot
		"Counter":   3, // Add Inc Value
		"Gauge":     2, // SetMax Value
		"Histogram": 1, // Observe
		"Span":      2, // Start AddDuration
		"Watchdog":  3, // Register Scan Start
		"Heartbeat": 2, // Beat Done
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(&Registry{}),
		reflect.TypeOf(&Counter{}),
		reflect.TypeOf(&Gauge{}),
		reflect.TypeOf(&Histogram{}),
		reflect.TypeOf(&Span{}),
		reflect.TypeOf(&Watchdog{}),
		reflect.TypeOf(&Heartbeat{}),
	} {
		name := typ.Elem().Name()
		if got := typ.NumMethod(); got != wantMethods[name] {
			t.Errorf("%s has %d exported methods, this test covers %d: extend TestObsNilSafety",
				name, got, wantMethods[name])
		}
	}
}
