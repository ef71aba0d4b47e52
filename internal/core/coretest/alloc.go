package coretest

import (
	"runtime"
	"slices"
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
