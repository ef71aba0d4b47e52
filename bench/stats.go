package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

var errNoSamples = errors.New("bench: no samples")

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of the
// samples. Above the median it refuses when fewer than minBeyond samples lie
// beyond the returned one: such a tail is the reading of a few outliers and
// does not repeat.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, errNoSamples
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 50 && n-rank < minBeyond {
		return 0, fmt.Errorf("bench: p%g of %d samples has %d beyond it, want >= %d", p, n, n-rank, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median is the nearest-rank p50; 0 for no samples (a layer the workload
// never entered).
func median(samples []float64) float64 {
	v, err := percentile(samples, 50)
	if err != nil {
		return 0
	}
	return v
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pacer is the open-loop schedule: op k is due at start + k·interval whether
// or not op k-1 has finished. Latency is counted from the due time, so a
// stall charges the ops queued behind it.
type pacer struct {
	start    time.Time
	interval time.Duration
	k        int
	now      func() time.Time
	sleep    func(time.Duration)
}

func newPacer(start time.Time, interval time.Duration) *pacer {
	return &pacer{start: start, interval: interval, now: time.Now, sleep: time.Sleep}
}

// next waits for the next op's due time and returns it with the generator's
// lateness (how long after the due time the op could actually be issued).
func (p *pacer) next() (due time.Time, late time.Duration) {
	due = p.start.Add(time.Duration(p.k) * p.interval)
	p.k++
	if wait := due.Sub(p.now()); wait > 0 {
		p.sleep(wait)
	}
	if late = p.now().Sub(due); late < 0 {
		late = 0
	}
	return due, late
}

// nearestRank is percentile without the tail guard, for the ungated
// diagnostics of the traced run.
func nearestRank(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := min(max(int(math.Ceil(p/100*float64(len(sorted)))), 1), len(sorted))
	return sorted[rank-1]
}

// sliceCount is how many equal slices a run's measured time is cut into.
// Throughput, CPU per op and the live heap are taken per slice and reported
// as the median over slices: on a shared host interference comes in bursts,
// and a burst that fits in two of five slices then leaves the reading alone.
const sliceCount = 5

// slice is what one slice of the measured time contributes.
type slice struct {
	lat     []float64 // e2e samples of the ops issued in the slice, ms
	ops     int
	seconds float64
	cpu     time.Duration
	heapMB  float64 // live heap after a forced GC at the slice's end
}

// reduceEndToEnd turns the slices into the run's end-to-end metrics. lat
// holds the slices whose ops were timed for latency; closed holds the extra
// closed-loop slices a workload with an open-loop latency phase runs for its
// throughput (nil when the latency slices were closed loop themselves).
// rxPerLane is what one subscriber read in all of them.
func reduceEndToEnd(res *result, lat, closed []slice, rxPerLane float64) error {
	thr := closed
	if thr == nil {
		thr = lat
	}
	all := append(append([]slice(nil), lat...), closed...)
	var pooled, rates, cpus, heaps []float64
	var ops int
	for _, s := range lat {
		pooled = append(pooled, s.lat...)
	}
	// CPU per op comes from the throughput slices alone: an open-loop op
	// costs more CPU than a closed-loop one (the lanes wake for every frame
	// instead of finding the next one queued), and a median over both kinds
	// would sit on the border between them.
	for _, s := range thr {
		rates = append(rates, float64(s.ops)/s.seconds)
		if s.ops > 0 {
			cpus = append(cpus, ms(s.cpu)/float64(s.ops))
		}
	}
	for _, s := range all {
		ops += s.ops
		res.MeasuredSeconds += s.seconds
		heaps = append(heaps, s.heapMB)
	}
	res.Ops = ops
	res.Samples = map[string]int{"e2e_p50_ms": len(pooled), "ops_per_s": ops, "slices": len(all)}
	p50, err := percentile(pooled, 50)
	if err != nil {
		return err
	}
	res.set("setup_s", median(res.SetupSeconds))
	res.set("e2e_p50_ms", p50)
	res.set("ops_per_s", median(rates))
	res.set("rx_bytes_per_op", rxPerLane/float64(ops))
	res.set("cpu_ms_per_op", median(cpus))
	// The live heap saw-tooths with the program's caches (a subscriber drops
	// its KEV cache when it fills); five readings across the run catch it at
	// different phases.
	res.set("heap_live_mb", median(heaps))
	return nil
}
