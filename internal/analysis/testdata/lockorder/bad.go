// Violating fixtures for the lockorder analyzer: inverted acquisitions of
// the mutMu → grpMu → mu → pubMu order and unpaired locks.
package fixtures

import "sync"

type registry struct {
	mutMu sync.Mutex
	grpMu sync.Mutex
	mu    sync.RWMutex
	pubMu sync.Mutex
}

// inverted acquires grpMu while holding mu — the reverse of the documented
// grpMu → mu order.
func (r *registry) inverted() {
	r.mu.Lock()
	r.grpMu.Lock() // want `acquires grpMu while holding mu`
	r.grpMu.Unlock()
	r.mu.Unlock()
}

// invertedRead holds a read lock on mu across the grpMu acquisition; reader
// locks participate in the same order.
func (r *registry) invertedRead() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.grpMu.Lock() // want `acquires grpMu while holding mu`
	r.grpMu.Unlock()
}

// mutationUnderPublish takes the mutation lock while holding the publish
// lock — the reverse of SetJournal's mutMu → pubMu.
func (r *registry) mutationUnderPublish() {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	r.mutMu.Lock() // want `acquires mutMu while holding pubMu`
	r.mutMu.Unlock()
}

// leaks never releases pubMu on any path.
func (r *registry) leaks() int {
	r.pubMu.Lock() // want `pubMu\.Lock without a paired Unlock`
	return 1
}

// relockResidue unlocks the first acquisition but leaves the second held on
// the fall-through return.
func (r *registry) relockResidue(cond bool) {
	r.mu.Lock()
	r.mu.Unlock()
	r.mu.Lock() // want `mu may still be held at function exit`
}

// closureLeak: the closure body is scanned as its own function.
func (r *registry) closureLeak() func() {
	return func() {
		r.grpMu.Lock() // want `grpMu\.Lock without a paired Unlock`
	}
}
