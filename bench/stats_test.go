package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[99-i] = float64(i + 1) // 100 … 1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {1, 1}, {25, 25}} {
		got, err := percentile(samples, tc.p)
		if err != nil || got != tc.want {
			t.Errorf("p%g = %v, %v; want %v", tc.p, got, err, tc.want)
		}
	}
	// Nearest rank rounds up: the median of 5 samples is the third.
	if got, _ := percentile([]float64{5, 1, 4, 2, 3}, 50); got != 3 {
		t.Errorf("p50 of 5 = %v, want 3", got)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := make([]float64, 100)
	// p90 of 100 leaves exactly 10 beyond it; p91 leaves 9.
	if _, err := percentile(samples, 90); err != nil {
		t.Errorf("p90 of 100 refused: %v", err)
	}
	if _, err := percentile(samples, 91); err == nil {
		t.Error("p91 of 100 accepted with 9 samples beyond it")
	}
	if _, err := percentile(samples[:99], 90); err == nil {
		t.Error("p90 of 99 accepted with 9 samples beyond it")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of nothing accepted")
	}
}

// fakeClock advances only when the pacer sleeps or the test says so.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestPacerCountsFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	p := &pacer{start: start, interval: 100 * time.Millisecond, now: clk.now, sleep: clk.sleep}

	due, late := p.next()
	if !due.Equal(start) || late != 0 {
		t.Fatalf("op 0: due %v late %v", due.Sub(start), late)
	}
	// Op 0 overruns: it takes 250 ms, so ops 1 and 2 are already overdue.
	clk.sleep(250 * time.Millisecond)
	due, late = p.next()
	if due.Sub(start) != 100*time.Millisecond || late != 150*time.Millisecond {
		t.Fatalf("op 1: due %v late %v, want 100ms and 150ms", due.Sub(start), late)
	}
	// An op finishing 20 ms later is charged from its due time, not from
	// when the generator got round to it: 170 ms, not 20 ms.
	clk.sleep(20 * time.Millisecond)
	if got := clk.now().Sub(due); got != 170*time.Millisecond {
		t.Fatalf("latency from due time = %v, want 170ms", got)
	}
	due, late = p.next()
	if due.Sub(start) != 200*time.Millisecond || late != 70*time.Millisecond {
		t.Fatalf("op 2: due %v late %v, want 200ms and 70ms", due.Sub(start), late)
	}
	// Caught up: op 3 waits for its slot and starts on time.
	due, late = p.next()
	if due.Sub(start) != 300*time.Millisecond || late != 0 || !clk.now().Equal(due) {
		t.Fatalf("op 3: due %v late %v now %v", due.Sub(start), late, clk.now().Sub(start))
	}
}

func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestLayerSelfTime(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add(0, publisherLane, "fanout.publish", "", at(0), at(10))
	tr.add(0, publisherLane, "pubsub.diff", "fanout.publish", at(0), at(3))
	tr.add(0, publisherLane, "fanout.enqueue", "fanout.publish", at(3), at(9))
	tr.add(0, 0, "ocbe.open_ge", "", at(10), at(14))
	tr.add(0, 0, "ocbe.open_ge", "", at(14), at(20))
	l := tr.layers()
	if got := l["fanout.publish"]; got.call != 10 || got.perOp != 1 {
		t.Errorf("fanout.publish = %+v, want call 10 self 1", got)
	}
	// Two calls in one op: the median call is the first of two by nearest
	// rank, the per-op figure their sum.
	if got := l["ocbe.open_ge"]; got.call != 4 || got.perOp != 10 {
		t.Errorf("ocbe.open_ge = %+v, want call 4 perOp 10", got)
	}
}
