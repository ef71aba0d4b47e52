package coretest

import (
	"runtime"
	"slices"
	"testing"
)

// Allocated returns how many bytes fn allocates (everything the process
// allocates while it runs).
func Allocated(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// AllocWithin runs decode and fails t if it allocated more than c bytes per
// input byte plus k: hostile bytes cost what they weigh.
func AllocWithin(t testing.TB, what string, input []byte, c, k uint64, decode func()) {
	t.Helper()
	if got, bound := Allocated(decode), c*uint64(len(input))+k; got > bound {
		t.Fatalf("decoding a %d-byte %s allocated %d bytes, more than %d", len(input), what, got, bound)
	}
}

// MedianAllocated returns the median of Allocated(fn) over runs calls: what
// code that works in pooled scratch allocates once the scratch has grown. A
// goroutine that changes processor between two calls finds the pool's other
// object, or none, so single calls and means are not stable; the median is.
func MedianAllocated(runs int, fn func()) uint64 {
	allocated := make([]uint64, runs)
	for i := range allocated {
		allocated[i] = Allocated(fn)
	}
	slices.Sort(allocated)
	return allocated[runs/2]
}
