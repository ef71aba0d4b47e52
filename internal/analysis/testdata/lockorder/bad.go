// Violating fixtures for the lockorder analyzer: mu and pubMu held together,
// in either order, and unpaired locks.
package fixtures

import "sync"

type publisher struct {
	mu    sync.RWMutex
	pubMu sync.Mutex
}

// inverted acquires mu while holding pubMu: a publish holding pubMu across
// its journal ticket would wait for mu, which the journal's applies take.
func (p *publisher) inverted() {
	p.pubMu.Lock()
	p.mu.Lock() // want `acquires mu while holding pubMu`
	p.mu.Unlock()
	p.pubMu.Unlock()
}

// invertedRead holds pubMu across a read lock on mu; reader locks count the
// same.
func (p *publisher) invertedRead() {
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	p.mu.RLock() // want `acquires mu while holding pubMu`
	p.mu.RUnlock()
}

// pubUnderTable takes pubMu while holding mu — the export reading the epoch
// inside its table hold, which deadlocks with a publish waiting on its
// journal ticket while the flusher's apply waits on mu.
func (p *publisher) pubUnderTable() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pubMu.Lock() // want `acquires pubMu while holding mu`
	p.pubMu.Unlock()
}

// leaks never releases pubMu on any path.
func (p *publisher) leaks() int {
	p.pubMu.Lock() // want `pubMu\.Lock without a paired Unlock`
	return 1
}

// relockResidue unlocks the first acquisition but leaves the second held on
// the fall-through return.
func (p *publisher) relockResidue(cond bool) {
	p.mu.Lock()
	p.mu.Unlock()
	p.mu.Lock() // want `mu may still be held at function exit`
}

// closureLeak: the closure body is scanned as its own function.
func (p *publisher) closureLeak() func() {
	return func() {
		p.mu.Lock() // want `mu\.Lock without a paired Unlock`
	}
}
