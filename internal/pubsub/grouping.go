package pubsub

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"sort"

	"ppcd/internal/core"
	"ppcd/internal/policy"
)

// This file is the registry's grouping layer (§VIII-C): each policy's
// qualified rows are partitioned into sticky groups of at most groupSize
// members, so the keymgr can hand the engine per-shard row blocks whose
// content signatures change only when that shard's membership does.
//
// Assignment is STICKY under churn: a (nym, policy) row keeps its group for
// as long as the row exists; a departing row frees its slot (later joiners
// refill it) without moving anyone else. A single join/leave/credential
// update therefore changes exactly one group's content per affected policy,
// which is what turns the engine's per-shard cache into "one small solve per
// churn event".
//
// The snapshot itself is incremental too. Mutations record churn hints — the
// (policy, nym) pairs they touched (registry.hint) — and snapshotGrouped
// re-qualifies just those pseudonyms against the columnar table, updates the
// affected groups' membership, and re-digests only the dirty groups' row
// blocks. At a million rows a single join costs one row qualification plus
// one group re-assembly instead of a full-table scan and regroup. The scan
// path (fullRegroup) remains for the cases hints cannot describe: the first
// snapshot of a policy, a monolithic state import, and bumpAll. A segmented
// import is not one of them: it restores the group state valid
// (regroupRestored), so the publish after a restart scans nothing.

// shardRows is one group's row block for one policy: the stable group
// number, a digest of the block's content (the engine's dirtiness signal),
// and the member rows in deterministic (sorted-nym) order.
type shardRows struct {
	GID  int
	Sig  string
	Rows [][]core.CSS
}

// groupState is the grouping state of one policy: the sticky assignment, the
// per-group occupancy (len(counts) is the number of groups ever created —
// empty groups keep their numbers), a constant-time least-full tracker, the
// sorted member list per group, and the cached shard assembly tagged with
// the membership version it reflects. valid=false forces a full regroup
// (fresh policy, monolithic import, bumpAll); afterwards the state stays
// valid and advances through churn hints alone. Guarded by grpMu.
type groupState struct {
	assign  map[string]int
	counts  []int
	tracker *minTracker
	members [][]string
	shards  []shardRows
	ver     uint64
	valid   bool
}

// shardSig digests one group's content: policy, group number and the
// ordered (nym, CSS row) members. Length prefixes keep crafted nyms from
// colliding across boundaries.
func shardSig(acpID string, gid int, nyms []string, rows [][]core.CSS) string {
	h := sha256.New()
	var num [8]byte
	writeStr := func(s string) {
		binary.BigEndian.PutUint64(num[:], uint64(len(s)))
		h.Write(num[:])
		h.Write([]byte(s))
	}
	writeStr(acpID)
	binary.BigEndian.PutUint64(num[:], uint64(gid))
	h.Write(num[:])
	for i, nym := range nyms {
		writeStr(nym)
		binary.BigEndian.PutUint64(num[:], uint64(len(rows[i])))
		h.Write(num[:])
		for _, css := range rows[i] {
			h.Write(css.Bytes())
		}
	}
	return base64.RawStdEncoding.EncodeToString(h.Sum(nil))
}

// trackOcc clamps an occupancy to the tracker's range. Occupancies above
// capacity can only arrive through inconsistent imported state; clamping
// parks such groups in the "full" bucket where they are never picked.
func trackOcc(c, capacity int) int {
	if c > capacity {
		return capacity
	}
	return c
}

// snapshotGrouped is the grouped counterpart of snapshot: for every policy
// it returns the qualified rows partitioned into sticky groups, with a
// content signature per group. Policies whose membership version is
// unchanged reuse their cached shard assembly; changed policies with valid
// group state replay just their churn hints. The returned shard slices are
// immutable once cached; callers use them lock-free.
func (r *registry) snapshotGrouped(acps []*policy.ACP) map[string][]shardRows {
	out := make(map[string][]shardRows, len(acps))

	// grpMu serializes grouped assembly (concurrent publishes) and guards
	// the group state. The incremental path additionally holds the write
	// lock for its (small) qualify-and-gather step so the hint steal, the
	// version read and the row reads are one atomic unit; the full-regroup
	// scan holds only the shared read lock, so a big rebuild does not stall
	// registrations.
	r.grpMu.Lock()
	defer r.grpMu.Unlock()

	for _, a := range acps {
		gs := r.grp[a.ID]
		if gs == nil {
			gs = &groupState{assign: make(map[string]int)}
			r.grp[a.ID] = gs
		}
		if gs.valid {
			r.mu.Lock()
			ver := r.memVer[a.ID]
			if gs.ver == ver {
				r.mu.Unlock()
				out[a.ID] = gs.shards
				continue
			}
			hints := r.pend[a.ID]
			delete(r.pend, a.ID)
			r.applyChurn(gs, a.ID, ver, hints)
			r.maybeCompact()
			r.mu.Unlock()
			out[a.ID] = gs.shards
			continue
		}
		// Full regroup: discard any pending hints first — the scan below
		// subsumes them. A mutation racing with the scan re-adds its hint
		// and bumps memVer past the version read inside the scan's lock, so
		// the next snapshot replays it.
		r.mu.Lock()
		delete(r.pend, a.ID)
		r.mu.Unlock()
		r.fullRegroup(gs, a)
		out[a.ID] = gs.shards
	}
	return out
}

// applyChurn advances one policy's group state by its churn hints: each
// hinted pseudonym is re-qualified against the table, departures free their
// slots, arrivals fill the least-full group (sorted-nym order, exactly as
// the full regroup assigns newcomers), and only groups whose membership or
// member content changed are re-assembled and re-digested. Callers hold
// grpMu and the registry write lock.
func (r *registry) applyChurn(gs *groupState, acpID string, ver uint64, hints map[string]struct{}) {
	cis := r.polConds[acpID]
	dirty := make(map[int]bool)
	var leavers, joiners []string
	for nym := range hints {
		qualified := false
		if s, ok := r.tab.slotOf[nym]; ok {
			qualified = qualifiesRow(r.tab.row(s), cis)
		}
		gid, assigned := gs.assign[nym]
		switch {
		case assigned && !qualified:
			leavers = append(leavers, nym)
		case !assigned && qualified:
			joiners = append(joiners, nym)
		case assigned && qualified:
			// Still a member, but its cells may have changed: re-digest.
			dirty[gid] = true
		}
	}

	// Departures first, so their slots are refillable by this batch's
	// arrivals — the same order the full regroup uses. Assignment changes
	// re-dirty the owning table row: the segmented state export stores each
	// row's group IDs alongside its cells, so a row whose assignment moved
	// must land in the next snapshot's dirty segments even if its cells were
	// exported (and its dirty bit cleared) between the mutation and this
	// grouped assembly.
	for _, nym := range leavers {
		gid := gs.assign[nym]
		delete(gs.assign, nym)
		gs.tracker.move(gid, trackOcc(gs.counts[gid], r.groupSize), trackOcc(gs.counts[gid]-1, r.groupSize))
		gs.counts[gid]--
		gs.members[gid] = removeSorted(gs.members[gid], nym)
		dirty[gid] = true
		if s, ok := r.tab.slotOf[nym]; ok {
			r.tab.markDirty(s)
		}
	}
	sort.Strings(joiners)
	for _, nym := range joiners {
		gid, ok := gs.tracker.least()
		if !ok {
			gid = len(gs.counts)
			gs.counts = append(gs.counts, 0)
			gs.members = append(gs.members, nil)
			gs.tracker.addAt(gid, 0)
		}
		gs.assign[nym] = gid
		gs.tracker.move(gid, trackOcc(gs.counts[gid], r.groupSize), trackOcc(gs.counts[gid]+1, r.groupSize))
		gs.counts[gid]++
		gs.members[gid] = insertSorted(gs.members[gid], nym)
		dirty[gid] = true
		if s, ok := r.tab.slotOf[nym]; ok {
			r.tab.markDirty(s)
		}
	}

	if len(dirty) > 0 {
		r.assembleShards(gs, acpID, dirty)
	}
	gs.ver = ver
}

// assembleShards rebuilds the policy's shard list, re-reading rows and
// recomputing signatures only for the dirty groups; clean groups keep their
// existing (immutable) shardRows. Callers hold grpMu and the registry write
// lock.
func (r *registry) assembleShards(gs *groupState, acpID string, dirty map[int]bool) {
	prev := make(map[int]shardRows, len(gs.shards))
	for _, sh := range gs.shards {
		prev[sh.GID] = sh
	}
	cis := r.polConds[acpID]
	shards := make([]shardRows, 0, len(gs.shards)+len(dirty))
	for gid, c := range gs.counts {
		if c <= 0 {
			continue
		}
		if !dirty[gid] {
			if sh, ok := prev[gid]; ok {
				shards = append(shards, sh)
				continue
			}
		}
		members := gs.members[gid]
		rows := make([][]core.CSS, len(members))
		for j, nym := range members {
			row := r.tab.row(r.tab.slotOf[nym])
			css := make([]core.CSS, len(cis))
			for k, ci := range cis {
				css[k] = row[ci]
			}
			rows[j] = css
		}
		shards = append(shards, shardRows{GID: gid, Sig: shardSig(acpID, gid, members, rows), Rows: rows})
	}
	gs.shards = shards
}

// fullRegroup rebuilds one policy's group state from a full table scan: the
// sticky assignment keeps everyone still qualified in place, departures are
// released, newcomers fill least-full groups in sorted order, and occupancy,
// tracker, member lists and shards are reconstructed. Callers hold grpMu
// (but NOT the registry lock — the scan takes the read lock itself).
func (r *registry) fullRegroup(gs *groupState, a *policy.ACP) {
	r.fullRegroups.Add(1)
	r.mu.RLock()
	ver := r.memVer[a.ID]
	nyms, rows := r.collectQualified(a)
	r.mu.RUnlock()

	if gs.assign == nil {
		gs.assign = make(map[string]int)
	}
	present := make(map[string]bool, len(nyms))
	for _, nym := range nyms {
		present[nym] = true
	}
	for nym := range gs.assign {
		if !present[nym] {
			delete(gs.assign, nym)
		}
	}
	// Rebuild occupancy from the surviving assignment. The group universe —
	// including empty groups — keeps its numbering, so restored members
	// never move shards.
	ngroups := len(gs.counts)
	for _, gid := range gs.assign {
		if gid >= ngroups {
			ngroups = gid + 1
		}
	}
	counts := make([]int, ngroups)
	for _, gid := range gs.assign {
		counts[gid]++
	}
	tracker := newMinTracker(r.groupSize)
	for gid, c := range counts {
		tracker.addAt(gid, trackOcc(c, r.groupSize))
	}
	// Assign newcomers to the least-full group with spare capacity (lowest
	// group number on ties, so refills are deterministic), opening a new
	// group once all are full. nyms arrive sorted.
	var newcomers []string
	for _, nym := range nyms {
		if _, ok := gs.assign[nym]; ok {
			continue
		}
		gid, ok := tracker.least()
		if !ok {
			gid = len(counts)
			counts = append(counts, 0)
			tracker.addAt(gid, 0)
		}
		gs.assign[nym] = gid
		tracker.move(gid, trackOcc(counts[gid], r.groupSize), trackOcc(counts[gid]+1, r.groupSize))
		counts[gid]++
		newcomers = append(newcomers, nym)
	}
	gs.counts = counts
	gs.tracker = tracker
	if len(newcomers) > 0 {
		// Fresh assignments re-dirty their rows so the next segmented
		// snapshot exports the new group IDs (see applyChurn). A row deleted
		// since the scan already marked itself on deletion.
		r.mu.Lock()
		for _, nym := range newcomers {
			if s, ok := r.tab.slotOf[nym]; ok {
				r.tab.markDirty(s)
			}
		}
		r.mu.Unlock()
	}

	// Per-group member lists and row blocks, in sorted-nym order.
	byGid := make([][]int, len(counts))
	for i, nym := range nyms {
		gid := gs.assign[nym]
		byGid[gid] = append(byGid[gid], i)
	}
	gs.members = make([][]string, len(counts))
	shards := make([]shardRows, 0, len(byGid))
	for gid, idx := range byGid {
		if len(idx) == 0 {
			continue
		}
		gNyms := make([]string, len(idx))
		gRows := make([][]core.CSS, len(idx))
		for j, i := range idx {
			gNyms[j] = nyms[i]
			gRows[j] = rows[i]
		}
		gs.members[gid] = gNyms
		shards = append(shards, shardRows{
			GID:  gid,
			Sig:  shardSig(a.ID, gid, gNyms, gRows),
			Rows: gRows,
		})
	}
	gs.shards = shards
	gs.ver = ver
	gs.valid = true
}

// restoredGroups is one policy's group state rebuilt by a segmented import,
// with what the stored assignment and cells disagreed on (churn exported
// before a grouped snapshot saw it): joiners qualify without a group, stale
// slots held a group they no longer qualify for.
type restoredGroups struct {
	gs      *groupState
	joiners map[string]struct{}
	stale   []int32
}

// regroupRestored rebuilds one policy's group state from its restored gid
// column, valid at the restored membership version — what fullRegroup would
// derive from the same assignment, without the scan-and-reconcile (sorted is
// the table's pseudonym order, so members fall into their groups sorted).
// tab is not yet shared; col is consumed.
func (r *registry) regroupRestored(tab *cssTable, sorted []int32, acpID string, col []int32, universe int, ver uint64) restoredGroups {
	cis := r.polConds[acpID]
	var out restoredGroups
	counts := make([]int, universe)
	assigned := 0
	for _, s := range sorted {
		switch g, q := col[s], qualifiesRow(tab.row(s), cis); {
		case g != gidNone && q:
			counts[g]++
			assigned++
		case g != gidNone:
			col[s] = gidNone
			out.stale = append(out.stale, s)
		case q:
			if out.joiners == nil {
				out.joiners = make(map[string]struct{})
			}
			out.joiners[tab.nyms[s]] = struct{}{}
		}
	}
	gs := &groupState{
		assign:  make(map[string]int, assigned),
		counts:  counts,
		tracker: newMinTracker(r.groupSize),
		members: make([][]string, universe),
		ver:     ver,
		valid:   true,
	}
	// One row-block allocation per group (its rows are windows of it), so a
	// re-solved group later releases exactly its own block.
	rows := make([][][]core.CSS, universe)
	blocks := make([][]core.CSS, universe)
	for gid, c := range counts {
		gs.tracker.addAt(gid, trackOcc(c, r.groupSize))
		if c > 0 {
			gs.members[gid] = make([]string, 0, c)
			rows[gid] = make([][]core.CSS, 0, c)
			blocks[gid] = make([]core.CSS, 0, c*len(cis))
		}
	}
	for _, s := range sorted {
		g := col[s]
		if g == gidNone {
			continue
		}
		gs.assign[tab.nyms[s]] = int(g)
		gs.members[g] = append(gs.members[g], tab.nyms[s])
		row, k := tab.row(s), len(blocks[g])
		for _, ci := range cis {
			blocks[g] = append(blocks[g], row[ci])
		}
		rows[g] = append(rows[g], blocks[g][k:len(blocks[g]):len(blocks[g])])
	}
	for gid, c := range counts {
		if c > 0 {
			gs.shards = append(gs.shards, shardRows{GID: gid, Sig: shardSig(acpID, gid, gs.members[gid], rows[gid]), Rows: rows[gid]})
		}
	}
	out.gs = gs
	return out
}

// insertSorted inserts nym into a sorted slice (no-op if already present).
func insertSorted(s []string, nym string) []string {
	i := sort.SearchStrings(s, nym)
	if i < len(s) && s[i] == nym {
		return s
	}
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = nym
	return s
}

// removeSorted removes nym from a sorted slice (no-op if absent).
func removeSorted(s []string, nym string) []string {
	i := sort.SearchStrings(s, nym)
	if i >= len(s) || s[i] != nym {
		return s
	}
	return append(s[:i], s[i+1:]...)
}
