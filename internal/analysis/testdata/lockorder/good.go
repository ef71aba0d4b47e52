// Conforming fixtures: the documented idioms must produce no diagnostics.
package fixtures

import "sync"

type keeper struct {
	mu    sync.RWMutex
	pubMu sync.Mutex
}

// oneHold is the registry idiom: the write lock, released by defer.
func (k *keeper) oneHold() {
	k.mu.Lock()
	defer k.mu.Unlock()
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

// sequentialScopes is the state export's idiom: the table side under mu,
// then the epoch and diff bases under pubMu, never both at once.
func (k *keeper) sequentialScopes() {
	k.mu.Lock()
	k.mu.Unlock()
	k.pubMu.Lock()
	k.pubMu.Unlock()
}

// repeated takes mu repeatedly in one function (the registry snapshot's read,
// rebuild and install phases).
func (k *keeper) repeated(xs []int) int {
	total := 0
	for range xs {
		k.mu.RLock()
		total++
		k.mu.RUnlock()
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	return total
}
