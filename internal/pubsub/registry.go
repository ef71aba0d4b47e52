package pubsub

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ppcd/internal/core"
	"ppcd/internal/policy"
)

// registry is the publisher's table-T layer: it owns the (nym, condition) →
// CSS table together with per-policy membership versions, behind a read-write
// lock. Mutations (RegisterBatch, Revoke*) take the write lock only for the table
// update itself — never across crypto — and Publish reads a consistent
// snapshot under the read lock, so registration traffic and broadcast
// encryption proceed concurrently.
//
// The table itself is columnar (columnar.go): the condition universe is fixed
// at construction, each pseudonym owns one dense row of CSS cells, and scans
// walk contiguous arrays instead of nested maps; table segments store it in
// that shape (statev2_segments.go).
//
// A policy's membership version increments whenever a table mutation could
// have changed that policy's qualified row set: a CSS write or delete for a
// condition of the policy, or the disappearance of a whole row. The keymgr
// layer compares version vectors to decide which configurations actually
// need a fresh ACV solve (incremental rekeying). In grouped mode the same
// mutations additionally record WHICH slot was touched (pend), so the grouped
// snapshot can re-qualify just the churned rows instead of rescanning the
// table.
type registry struct {
	mu  sync.RWMutex
	tab *cssTable
	// tabGen counts wholesale table replacements and invalidations. A
	// segmented export base (statev2_segments.go) captured against an older
	// tabGen is invalid: after bumpAll the segments it stands for still hold
	// what an import dropped. A segmented import preserves slots and hands its
	// new tabGen back as the base.
	tabGen uint64
	// memVer is the membership version per policy ID.
	memVer map[string]uint64
	// byCond maps a condition ID to the IDs of policies containing it.
	byCond map[string][]string
	// polConds maps a policy ID to its conditions' interned column indices,
	// in policy-condition order (the row-assembly order of matrix A).
	polConds map[string][]int
	// rowsCache holds the assembled qualified rows per policy, tagged with
	// the membership version they were built at; a steady-state snapshot is
	// then O(policies) instead of a full table scan.
	rowsCache map[string]policyRows
	// pend accumulates, per policy, the slots whose cells for that policy
	// changed since the last grouped snapshot consumed them (a deleted row's
	// slot still names its leaver: the gid column pins it, columnar.go). Only
	// maintained in grouped mode (groupSize > 0); guarded by mu.
	pend map[string]map[int32]struct{}

	// Grouped mode (§VIII-C, grouping.go): groupSize > 0 partitions each
	// policy's rows into sticky groups of at most groupSize members. mu
	// guards the per-policy group state with the table it indexes. mu is one
	// of the publisher's two locks (publisher.go); it is never held while
	// pubMu is taken, nor taken under pubMu (the lockorder analyzer checks
	// both). A grouped snapshot takes Engine.mu under mu, leasing solves
	// (core.Engine.Lease); the engine never calls back.
	groupSize    int
	grp          map[string]*groupState
	fullRegroups atomic.Uint64 // Stats.FullRegroups
}

// policyRows is one cached row assembly. The rows slice is immutable once
// cached (rebuilds replace the whole entry), so snapshots may share it
// lock-free.
type policyRows struct {
	ver  uint64
	rows [][]core.CSS
}

func newRegistry(acps []*policy.ACP, groupSize int) *registry {
	r := &registry{
		memVer:    make(map[string]uint64, len(acps)),
		byCond:    make(map[string][]string),
		polConds:  make(map[string][]int, len(acps)),
		rowsCache: make(map[string]policyRows, len(acps)),
		pend:      make(map[string]map[int32]struct{}),
		groupSize: groupSize,
		grp:       make(map[string]*groupState),
	}
	// The condition universe is the union of the policies' conditions, in
	// first-seen order (deterministic given the policy list).
	var conds []string
	seen := make(map[string]int)
	for _, a := range acps {
		r.memVer[a.ID] = 0
		for _, c := range a.Conds {
			id := c.ID()
			if _, ok := seen[id]; !ok {
				seen[id] = len(conds)
				conds = append(conds, id)
			}
			r.byCond[id] = append(r.byCond[id], a.ID)
			r.polConds[a.ID] = append(r.polConds[a.ID], seen[id])
		}
	}
	r.tab = newCSSTable(conds)
	return r
}

// bump marks every policy containing condID as membership-dirty. Callers
// hold the write lock.
func (r *registry) bump(condID string) {
	for _, acpID := range r.byCond[condID] {
		r.memVer[acpID]++
	}
}

// hint records that slot s's cells for condID's policies changed, feeding the
// grouped snapshot's incremental churn path. Callers hold the write lock.
func (r *registry) hint(s int32, condID string) {
	if r.groupSize <= 0 {
		return
	}
	for _, acpID := range r.byCond[condID] {
		m := r.pend[acpID]
		if m == nil {
			m = make(map[int32]struct{})
			r.pend[acpID] = m
		}
		m[s] = struct{}{}
	}
}

// bumpAll marks every policy membership-dirty (used when a state import had
// to drop stale columns: restored caches may cover memberships that no
// longer hold). Grouped state is invalidated wholesale — the churn hints
// cannot describe "everything may have changed" — and so is any segmented
// export base: the segments it stands for still hold what was dropped.
func (r *registry) bumpAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := range r.memVer {
		r.memVer[id]++
	}
	clear(r.pend)
	r.tabGen++
	for _, gs := range r.grp {
		gs.valid = false
	}
}

// maybeCompact folds the columnar table's pending bookkeeping when it has
// outgrown its threshold. Callers hold the write lock.
func (r *registry) maybeCompact() {
	if r.tab.needsCompact() {
		r.tab.compact()
	}
}

// setCells records a batch of CSSs for one pseudonym under a single lock
// acquisition (overwrite = credential update, §V-C). It is the one path of a
// live registration and its WAL replay: a cell overwrite with the identical
// CSS value bumps nothing, so replaying an event that is already reflected in
// the restored snapshot (the crash-between-snapshot-and-WAL-rotation window)
// stays idempotent for the rekey engine. A live registration draws a fresh
// CSS, so every cell it sets changes.
func (r *registry) setCells(nym string, cells map[string]core.CSS) {
	if len(cells) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.tab.ensureRow(nym)
	row := r.tab.row(s)
	for condID, css := range cells {
		ci, ok := r.tab.condIdx[condID]
		if !ok || row[ci] == css {
			continue // unknown condition (no policy can see it) or unchanged
		}
		row[ci] = css
		r.bump(condID)
		r.hint(s, condID)
		r.tab.markDirty(s)
	}
	r.maybeCompact()
}

// revokeSubscription removes a pseudonym's whole row (paper "Subscription
// Revocation").
func (r *registry) revokeSubscription(nym string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.tab.slotOf[nym]
	if !ok {
		return fmt.Errorf("pubsub: unknown subscriber %q", nym)
	}
	for ci, v := range r.tab.row(s) {
		if v != 0 {
			r.bump(r.tab.conds[ci])
			r.hint(s, r.tab.conds[ci])
		}
	}
	r.tab.deleteRow(nym)
	r.maybeCompact()
	return nil
}

// revokeCredential removes a single CSS cell (paper "Credential
// Revocation"). When the last cell of a row goes, the row goes with it —
// a ghost subscriber with zero credentials can never qualify for any policy
// and would only inflate SubscriberCount.
func (r *registry) revokeCredential(nym, condID string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.tab.slotOf[nym]
	if !ok {
		return fmt.Errorf("pubsub: unknown subscriber %q", nym)
	}
	row := r.tab.row(s)
	ci, known := r.tab.condIdx[condID]
	if !known || row[ci] == 0 {
		return fmt.Errorf("pubsub: subscriber %q has no CSS for %q", nym, condID)
	}
	row[ci] = 0
	r.bump(condID)
	r.hint(s, condID)
	r.tab.markDirty(s)
	if rowEmpty(row) {
		r.tab.deleteRow(nym)
	}
	r.maybeCompact()
	return nil
}

// count returns the number of registered pseudonyms.
func (r *registry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tab.live
}

// tableMemory returns the number of registered pseudonyms and the estimated
// resident bytes of table T's columnar backing (the bytes/subscriber metric
// of the scale benchmark).
func (r *registry) tableMemory() (int, int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tab.live, r.tab.memBytes()
}

// groupMemory returns the number of grouped policy rows (group members over
// all policies) and the estimated resident bytes of the grouping layer around
// them: gid columns, member slot lists, per-group occupancy and slice headers,
// 48-byte shard entries with their signatures inline, unconsumed hints, and
// the tracker's one bitset of the groups per occupancy level.
func (r *registry) groupMemory() (rows int, b int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for id, gs := range r.grp {
		b += int64(4*cap(r.tab.gids[id]) + 8*cap(gs.counts) + 24*cap(gs.members) + 48*cap(gs.shards) + 16*len(r.pend[id]))
		b += int64((r.groupSize + 1) * (56 + len(gs.counts)/8))
		for _, m := range gs.members {
			rows += len(m)
			b += int64(4 * cap(m))
		}
	}
	return rows, b
}

// qualifiesRow reports whether a columnar row holds a CSS for every listed
// condition column.
func qualifiesRow(row []core.CSS, cis []int) bool {
	for _, ci := range cis {
		if row[ci] == 0 {
			return false
		}
	}
	return true
}

// collectQualified assembles, in sorted-pseudonym order, the qualified CSS
// rows of one policy. Callers hold at least the read lock.
func (r *registry) collectQualified(a *policy.ACP) [][]core.CSS {
	cis := r.polConds[a.ID]
	var rows [][]core.CSS
	for _, s := range r.tab.sortedLive() {
		if r.tab.nyms[s] == "" {
			continue
		}
		row := r.tab.row(s)
		css := make([]core.CSS, len(cis))
		ok := true
		for k, ci := range cis {
			v := row[ci]
			if v == 0 {
				ok = false
				break
			}
			css[k] = v
		}
		if ok {
			rows = append(rows, css)
		}
	}
	return rows
}

// snapshot assembles, for every given policy, the subscriber CSS rows of
// matrix A (paper §V-C1) — one ordered CSS list per pseudonym whose row
// contains a CSS for each of the policy's conditions — plus the membership
// version of each policy at snapshot time. The returned structures are
// private to the caller (cached row slices are immutable), so Publish works
// on them lock-free while registrations continue. Policies whose membership
// version is unchanged reuse their cached row assembly: a steady-state
// snapshot costs O(policies), not a table scan.
func (r *registry) snapshot(acps []*policy.ACP) (map[string][][]core.CSS, map[string]uint64) {
	rows := make(map[string][][]core.CSS, len(acps))
	vers := make(map[string]uint64, len(acps))

	r.mu.RLock()
	var stale []*policy.ACP
	for _, a := range acps {
		if e, ok := r.rowsCache[a.ID]; ok && e.ver == r.memVer[a.ID] {
			rows[a.ID] = e.rows
			vers[a.ID] = e.ver
			continue
		}
		stale = append(stale, a)
	}
	r.mu.RUnlock()
	if len(stale) == 0 {
		return rows, vers
	}

	// Rebuild the stale assemblies under the shared lock — the table scan
	// must not hold the exclusive lock, or a big rebuild would serialize
	// every RegisterBatch/Revoke behind it. Mutations take the write lock, so
	// the versions read here are consistent with the scanned rows.
	rebuilt := make(map[string]policyRows, len(stale))
	r.mu.RLock()
	for _, a := range stale {
		if e, ok := r.rowsCache[a.ID]; ok && e.ver == r.memVer[a.ID] {
			// A concurrent snapshot rebuilt it while we were unlocked.
			rows[a.ID] = e.rows
			vers[a.ID] = e.ver
			continue
		}
		e := policyRows{ver: r.memVer[a.ID], rows: r.collectQualified(a)}
		rebuilt[a.ID] = e
		rows[a.ID] = e.rows
		vers[a.ID] = e.ver
	}
	r.mu.RUnlock()
	if len(rebuilt) == 0 {
		return rows, vers
	}

	// Install the rebuilt entries under a brief exclusive lock; skip any
	// whose membership advanced since the scan (the rows returned above are
	// still a valid snapshot of the version they were scanned at).
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, e := range rebuilt {
		if r.memVer[id] == e.ver {
			r.rowsCache[id] = e
		}
	}
	r.maybeCompact()
	return rows, vers
}

// installRestored swaps in the table a segmented import rebuilt
// (statev2_segments.go) with the group states regrouped over its gid columns.
// Slots are where the segments had them, so the returned table generation
// makes those segments a sound base for the next segmented export; only rows
// whose stored assignment the import had to change (churn exported before a
// grouped snapshot saw it) are dirty.
func (r *registry) installRestored(tab *cssTable, memVer map[string]uint64, groups map[string]*groupState, changed []int32) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	// The versions the state was exported at; nothing derived from the old
	// table survives it.
	r.tab = tab
	r.tabGen++
	for id := range r.memVer {
		r.memVer[id] = memVer[id]
	}
	r.rowsCache = make(map[string]policyRows)
	clear(r.pend)
	r.grp = groups
	for _, s := range changed {
		tab.markDirty(s)
	}
	return r.tabGen
}

// has reports whether a pseudonym has a row (and, with condID != "", a cell
// for that condition).
func (r *registry) has(nym, condID string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.tab.slotOf[nym]
	if !ok || condID == "" {
		return ok
	}
	ci, known := r.tab.condIdx[condID]
	return known && r.tab.row(s)[ci] != 0
}
