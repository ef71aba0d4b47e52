// Conforming fixtures: the documented idioms must produce no diagnostics.
package fixtures

import "sync"

type keeper struct {
	grpMu sync.Mutex
	mu    sync.RWMutex
	mutMu sync.Mutex
	pubMu sync.Mutex
}

// documentedOrder is the registry.go idiom: grpMu first, then mu, both
// released by defer.
func (k *keeper) documentedOrder() {
	k.grpMu.Lock()
	defer k.grpMu.Unlock()
	k.mu.Lock()
	defer k.mu.Unlock()
}

// interleaved takes mu repeatedly inside a grpMu-held section (the grouped
// assembly pattern in grouping.go).
func (k *keeper) interleaved(xs []int) int {
	k.grpMu.Lock()
	defer k.grpMu.Unlock()
	total := 0
	for range xs {
		k.mu.Lock()
		total++
		k.mu.Unlock()
	}
	return total
}

// branchRelease unlocks on an early-out branch and on the main path.
func (k *keeper) branchRelease(skip bool) int {
	k.mu.Lock()
	if skip {
		k.mu.Unlock()
		return 0
	}
	n := 1
	k.mu.Unlock()
	return n
}

// sequentialScopes takes mu then later grpMu, but never holds both at once:
// no order to violate.
func (k *keeper) sequentialScopes() {
	k.mu.Lock()
	k.mu.Unlock()
	k.grpMu.Lock()
	k.grpMu.Unlock()
}

// setJournal is the publisher's SetJournal idiom: mutMu, then pubMu, the two
// ends of the order.
func (k *keeper) setJournal() {
	k.mutMu.Lock()
	defer k.mutMu.Unlock()
	k.pubMu.Lock()
	defer k.pubMu.Unlock()
}
