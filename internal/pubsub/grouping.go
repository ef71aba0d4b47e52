package pubsub

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ppcd/internal/core"
	"ppcd/internal/policy"
)

// This file is the registry's grouping layer (§VIII-C): each policy's
// qualified rows are partitioned into sticky groups of at most groupSize
// members, so the keymgr can hand the engine per-shard specs whose content
// signatures change only when that shard's membership does.
//
// Assignment is STICKY under churn: a (nym, policy) row keeps its group for
// as long as the row exists; a departing row frees its place (later joiners
// refill it) without moving anyone else. A single join/leave/credential
// update therefore changes exactly one group's content per affected policy,
// which is what turns the engine's per-shard cache into "one small solve per
// churn event".
//
// What is held per grouped policy is what a table segment stores plus an index
// over it: the gid column of table T (columnar.go), every group's member SLOTS
// in pseudonym order, a least-full tracker and one {GID, Sig, N} per non-empty
// group — no names, no rows, no name → group map. A group's rows are a
// per-publish value: snapshotGrouped copies them out of T only for a shard the
// engine holds no solve for, under the lock hold that digested them. Slots
// stay meaningful because a slot a gid column names is never recycled
// (cssTable.compact).
//
// The snapshot itself is incremental too. Mutations record churn hints — the
// (policy, slot) pairs they touched (registry.hint) — and snapshotGrouped
// re-qualifies just those slots, updates the affected groups and re-digests
// only the dirty ones: at a million rows a single join costs one row
// qualification plus one group digest. The scan (a full regroup) remains for
// what hints cannot describe: a policy's first snapshot, bumpAll. A segmented
// import installs the stored columns and rebuilds the index over them
// (regroup): the publish after a restart scans nothing.

// groupShard is one non-empty group as the last snapshot left it: its stable
// number, the digest of its content (the engine's dirtiness signal), its size.
type groupShard struct {
	GID int
	Sig string
	N   int
}

// groupState is the grouping index of one policy over its gid column: the
// per-group occupancy (len(counts) is the number of groups ever created —
// empty groups keep their numbers), a constant-time least-full tracker, the
// member slots per group in pseudonym order, and the non-empty groups by
// ascending number, tagged with the membership version they reflect.
// valid=false forces a full regroup (fresh policy, bumpAll, a failed
// snapshot); afterwards the state advances through churn hints alone.
// Guarded by grpMu.
type groupState struct {
	counts  []int
	tracker *minTracker
	members [][]int32
	shards  []groupShard
	ver     uint64
	valid   bool
}

// shardID names one policy's group across configurations and sessions.
func shardID(acpID string, gid int) string { return acpID + "/" + strconv.Itoa(gid) }

// memberCells appends member slot s's cells for the condition columns cis to
// dst. A dead slot or a missing CSS is an error, never a row: H(0‖z) is
// computable by anyone.
func (t *cssTable) memberCells(dst []core.CSS, s int32, cis []int) ([]core.CSS, error) {
	if t.nyms[s] == "" {
		return nil, fmt.Errorf("pubsub: group member slot %d is dead", s)
	}
	row := t.row(s)
	for _, ci := range cis {
		if row[ci] == 0 {
			return nil, fmt.Errorf("pubsub: group member slot %d holds no CSS for %q", s, t.conds[ci])
		}
		dst = append(dst, row[ci])
	}
	return dst, nil
}

// groupSig digests one group's content: policy, group number and the ordered
// (nym, CSS row) members. Length prefixes keep crafted nyms from colliding
// across boundaries.
func (t *cssTable) groupSig(acpID string, gid int, members []int32, cis []int) (string, error) {
	h := sha256.New()
	var num [8]byte
	writeNum := func(v int) {
		binary.BigEndian.PutUint64(num[:], uint64(v))
		h.Write(num[:])
	}
	writeStr := func(s string) {
		writeNum(len(s))
		h.Write([]byte(s))
	}
	writeStr(acpID)
	writeNum(gid)
	cells := make([]core.CSS, 0, len(cis))
	for _, s := range members {
		var err error
		if cells, err = t.memberCells(cells[:0], s, cis); err != nil {
			return "", fmt.Errorf("%w (policy %q, group %d)", err, acpID, gid)
		}
		writeStr(t.nyms[s])
		writeNum(len(cells))
		for _, css := range cells {
			writeNum(int(css))
		}
	}
	return base64.RawStdEncoding.EncodeToString(h.Sum(nil)), nil
}

// gatherRows copies the members' rows out of the table for one solve: one
// flat block, one window per row.
func (t *cssTable) gatherRows(members []int32, cis []int) (rows [][]core.CSS, err error) {
	rows = make([][]core.CSS, 0, len(members))
	block := make([]core.CSS, 0, len(members)*len(cis))
	for _, s := range members {
		k := len(block)
		if block, err = t.memberCells(block, s, cis); err != nil {
			return nil, err
		}
		rows = append(rows, block[k:len(block):len(block)])
	}
	return rows, nil
}

// snapshotGrouped is the grouped counterpart of snapshot: for every policy it
// returns the specs of its non-empty groups, in group order — ID, content
// signature, row count, and the rows themselves for every shard solved reports
// no solve for. A policy whose membership version is unchanged keeps its
// signatures; a changed one with valid group state replays just its hints.
//
// grpMu serializes grouped assembly (concurrent publishes) and guards the
// group state. The policies are advanced, digested and gathered under one hold
// of the registry write lock: the snapshot is of one table state, and the rows
// a solve hashes are the rows its Sig digests; solved is asked under both
// locks (grpMu → mu → Engine.mu). The hold is proportional to the churn,
// except for a full regroup, which scans and digests a policy while
// registrations wait — once per policy and process, or after bumpAll.
func (r *registry) snapshotGrouped(acps []*policy.ACP, solved func(id, sig string) bool) (map[string][]core.ShardSpec, error) {
	out := make(map[string][]core.ShardSpec, len(acps))
	r.grpMu.Lock()
	defer r.grpMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range acps {
		gs := r.grp[a.ID]
		if gs == nil {
			gs = &groupState{}
			r.grp[a.ID] = gs
			r.tab.addGidColumn(a.ID)
		}
		ver, hints := r.memVer[a.ID], r.pend[a.ID]
		delete(r.pend, a.ID)
		var err error
		switch {
		case !gs.valid: // the scan subsumes the hints
			r.fullRegroups.Add(1)
			var changed []int32
			changed, err = r.regroup(r.tab, r.tab.sortedLive(), a.ID, gs)
			for _, s := range changed { // see applyChurn
				r.tab.markDirty(s)
			}
		case gs.ver != ver:
			err = r.applyChurn(gs, a.ID, hints)
		}
		gs.ver = ver
		if err == nil {
			out[a.ID], err = r.shardSpecs(gs, a.ID, solved)
		}
		if err != nil {
			gs.valid = false // the next snapshot rebuilds it from the table
			return nil, err
		}
	}
	r.maybeCompact()
	return out, nil
}

// shardSpecs turns the policy's shard list into the engine's specs, gathering
// rows for the shards the engine cannot serve from its cache.
func (r *registry) shardSpecs(gs *groupState, acpID string, solved func(id, sig string) bool) ([]core.ShardSpec, error) {
	cis := r.polConds[acpID]
	specs := make([]core.ShardSpec, len(gs.shards))
	for i, sh := range gs.shards {
		sp := core.ShardSpec{ID: shardID(acpID, sh.GID), Sig: sh.Sig, N: sh.N}
		if !solved(sp.ID, sp.Sig) {
			rows, err := r.tab.gatherRows(gs.members[sh.GID], cis)
			if err != nil {
				return nil, fmt.Errorf("%w (shard %q)", err, sp.ID)
			}
			sp.Rows = rows
		}
		specs[i] = sp
	}
	return specs, nil
}

// applyChurn advances one policy's group state by its churn hints: each
// hinted slot is re-qualified against the table, departures free their
// places, arrivals fill the least-full group (pseudonym order, exactly as
// regroup assigns newcomers), and only groups whose membership or member
// content changed are re-digested.
func (r *registry) applyChurn(gs *groupState, acpID string, hints map[int32]struct{}) error {
	tab, cis, col := r.tab, r.polConds[acpID], r.tab.gids[acpID]
	var dirty []int
	var joiners []int32
	// Departures first, so their places are refillable by this batch's
	// arrivals — the order regroup uses. Assignment changes re-dirty the
	// owning table row: a table segment stores a row's group IDs beside its
	// cells, so the row must land in the next snapshot's dirty segments even
	// if its cells were exported between the mutation and this assembly.
	for s := range hints {
		live := tab.nyms[s] != ""
		qualified := live && qualifiesRow(tab.row(s), cis)
		switch gid := int(col[s]); {
		case gid >= 0 && !qualified:
			col[s] = gidNone
			gs.occupy(gid, -1, r.groupSize)
			gs.members[gid] = slices.DeleteFunc(gs.members[gid], func(m int32) bool { return m == s })
			dirty = append(dirty, gid)
			if live {
				tab.markDirty(s)
			}
		case gid < 0 && qualified:
			joiners = append(joiners, s)
		case gid >= 0:
			// Still a member, but its cells may have changed: re-digest.
			dirty = append(dirty, gid)
		}
	}
	byNym := func(a, b int32) int { return strings.Compare(tab.nyms[a], tab.nyms[b]) }
	slices.SortFunc(joiners, byNym)
	for _, s := range joiners {
		gid := gs.place(r.groupSize)
		col[s] = int32(gid)
		at, _ := slices.BinarySearchFunc(gs.members[gid], s, byNym)
		gs.members[gid] = slices.Insert(gs.members[gid], at, s)
		dirty = append(dirty, gid)
		tab.markDirty(s)
	}

	slices.Sort(dirty)
	for _, gid := range slices.Compact(dirty) {
		if err := gs.redigest(tab, acpID, gid, cis); err != nil {
			return err
		}
	}
	return nil
}

// redigest brings group gid's entry in the shard list up to its member list.
func (gs *groupState) redigest(tab *cssTable, acpID string, gid int, cis []int) error {
	at, had := slices.BinarySearchFunc(gs.shards, gid, func(sh groupShard, gid int) int { return sh.GID - gid })
	members := gs.members[gid]
	if len(members) == 0 {
		if had {
			gs.shards = slices.Delete(gs.shards, at, at+1)
		}
		return nil
	}
	sig, err := tab.groupSig(acpID, gid, members, cis)
	if err != nil {
		return err
	}
	if !had {
		gs.shards = slices.Insert(gs.shards, at, groupShard{})
	}
	gs.shards[at] = groupShard{GID: gid, Sig: sig, N: len(members)}
	return nil
}

// occupy moves group gid's occupancy by delta. The tracker sees it clamped to
// the capacity: more can only arrive through inconsistent imported state, and
// lands such a group in the "full" bucket where it is never picked.
func (gs *groupState) occupy(gid, delta, groupSize int) {
	gs.tracker.move(gid, min(gs.counts[gid], groupSize), min(gs.counts[gid]+delta, groupSize))
	gs.counts[gid] += delta
}

// place picks the group for one newcomer — the least-full one with spare
// capacity, lowest number on ties, a new group once all are full — and counts
// the newcomer in; the caller lists it as a member.
func (gs *groupState) place(groupSize int) int {
	gid, ok := gs.tracker.least()
	if !ok {
		gid = len(gs.counts)
		gs.counts = append(gs.counts, 0)
		gs.members = append(gs.members, nil)
		gs.tracker.addAt(gid, 0)
	}
	gs.occupy(gid, 1, groupSize)
	return gid
}

// regroup rebuilds one policy's group state from its gid column and table tab
// (sorted = the live slots in pseudonym order, dead ones tolerated): whoever
// holds a group and still qualifies stays put, a gid on a dead or unqualified
// slot is released, newcomers fill least-full groups in pseudonym order, and
// occupancy, tracker, member lists and signatures are reconstructed.
// len(gs.counts) on entry is the group universe — empty groups included, so
// nobody ever moves shards. It returns the live slots whose assignment
// changed. A full regroup runs it on the live table; a segmented import on a
// table nobody shares yet, where a clean stop left nothing to release or place.
func (r *registry) regroup(tab *cssTable, sorted []int32, acpID string, gs *groupState) (changed []int32, err error) {
	cis, col := r.polConds[acpID], tab.gids[acpID]
	for s, gid := range col {
		if gid == gidNone {
			continue
		}
		if live := tab.nyms[s] != ""; !live || !qualifiesRow(tab.row(int32(s)), cis) {
			col[s] = gidNone
			if live {
				changed = append(changed, int32(s))
			}
		}
	}
	clear(gs.counts)
	var newcomers []int32
	for _, s := range sorted {
		switch gid := col[s]; {
		case gid != gidNone:
			gs.counts[gid]++
		case tab.nyms[s] != "" && qualifiesRow(tab.row(s), cis):
			newcomers = append(newcomers, s)
		}
	}
	gs.tracker = newMinTracker(r.groupSize)
	for gid, c := range gs.counts {
		gs.tracker.addAt(gid, min(c, r.groupSize))
	}
	gs.members = make([][]int32, len(gs.counts))
	for _, s := range newcomers {
		col[s] = int32(gs.place(r.groupSize))
	}
	changed = append(changed, newcomers...)

	// Member lists are windows of one block, each with exactly its group's
	// capacity: a group that grows later reallocates only itself.
	total := 0
	for _, c := range gs.counts {
		total += c
	}
	block := make([]int32, total)
	for gid, c := range gs.counts {
		gs.members[gid], block = block[:0:c], block[c:]
	}
	for _, s := range sorted {
		if gid := col[s]; gid != gidNone {
			gs.members[gid] = append(gs.members[gid], s)
		}
	}
	gs.shards = gs.shards[:0]
	for gid := range gs.members {
		if err := gs.redigest(tab, acpID, gid, cis); err != nil {
			return nil, err
		}
	}
	gs.valid = true
	return changed, nil
}
