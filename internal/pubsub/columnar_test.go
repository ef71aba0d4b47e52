package pubsub

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/policy"
)

// modelRegistry reimplements the registry's pre-columnar semantics — the
// nym → condition → CSS map of maps, per-policy membership versions, and the
// linear-scan sticky regroup — as the oracle for the columnar
// implementation. It is deliberately naive: no caches, no incremental churn;
// every snapshot reassembles from scratch.
type modelRegistry struct {
	table  map[string]map[string]core.CSS
	memVer map[string]uint64
	byCond map[string][]string
	assign map[string]map[string]int
	counts map[string][]int
	gsize  int
}

func newModelRegistry(acps []*policy.ACP, gsize int) *modelRegistry {
	m := &modelRegistry{
		table:  make(map[string]map[string]core.CSS),
		memVer: make(map[string]uint64),
		byCond: make(map[string][]string),
		assign: make(map[string]map[string]int),
		counts: make(map[string][]int),
		gsize:  gsize,
	}
	for _, a := range acps {
		m.memVer[a.ID] = 0
		for _, c := range a.Conds {
			m.byCond[c.ID()] = append(m.byCond[c.ID()], a.ID)
		}
	}
	return m
}

func (m *modelRegistry) bump(cond string) {
	for _, id := range m.byCond[cond] {
		m.memVer[id]++
	}
}

func (m *modelRegistry) setCells(nym string, cells map[string]core.CSS) {
	if len(cells) == 0 {
		return
	}
	row := m.table[nym]
	if row == nil {
		row = make(map[string]core.CSS)
		m.table[nym] = row
	}
	for cond, css := range cells {
		if row[cond] == css {
			continue
		}
		row[cond] = css
		m.bump(cond)
	}
}

// forget releases a deleted row's groups: stickiness belongs to the row, so a
// pseudonym that registers again before the next regroup is a newcomer.
func (m *modelRegistry) forget(nym string) {
	delete(m.table, nym)
	for id, assign := range m.assign {
		if gid, ok := assign[nym]; ok {
			delete(assign, nym)
			m.counts[id][gid]--
		}
	}
}

func (m *modelRegistry) revokeSubscription(nym string) bool {
	row, ok := m.table[nym]
	if !ok {
		return false
	}
	m.forget(nym)
	for cond := range row {
		m.bump(cond)
	}
	return true
}

func (m *modelRegistry) revokeCredential(nym, cond string) bool {
	row, ok := m.table[nym]
	if !ok {
		return false
	}
	if _, ok := row[cond]; !ok {
		return false
	}
	delete(row, cond)
	if len(row) == 0 {
		m.forget(nym)
	}
	m.bump(cond)
	return true
}

// qualified returns the policy's member nyms and CSS rows in sorted order.
func (m *modelRegistry) qualified(a *policy.ACP) ([]string, [][]core.CSS) {
	nyms := make([]string, 0, len(m.table))
	for nym := range m.table {
		nyms = append(nyms, nym)
	}
	sort.Strings(nyms)
	var qn []string
	var rows [][]core.CSS
	for _, nym := range nyms {
		row := m.table[nym]
		css := make([]core.CSS, 0, len(a.Conds))
		complete := true
		for _, c := range a.Conds {
			v, ok := row[c.ID()]
			if !ok {
				complete = false
				break
			}
			css = append(css, v)
		}
		if complete {
			qn = append(qn, nym)
			rows = append(rows, css)
		}
	}
	return qn, rows
}

// refShardSig is the group signature as the grouping layer computed it while
// it held every member's name and a copy of its row: the reference for
// cssTable.groupSig, which digests the same bytes straight out of table T.
func refShardSig(acpID string, gid int, nyms []string, rows [][]core.CSS) string {
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

// unsolved is a rekey engine that holds nothing: every shard of a grouped
// snapshot comes with its rows.
func unsolved(string, string) bool { return false }

// regroup is the old linear-scan sticky grouping: release departures, then
// assign newcomers (sorted order) to the least-full non-full group, lowest
// group number on ties. It returns what a grouped snapshot hands an engine
// without a cache, and each group's members by name.
func (m *modelRegistry) regroup(a *policy.ACP) ([]core.ShardSpec, [][]string) {
	nyms, rows := m.qualified(a)
	assign := m.assign[a.ID]
	if assign == nil {
		assign = make(map[string]int)
		m.assign[a.ID] = assign
	}
	counts := m.counts[a.ID]
	present := make(map[string]bool, len(nyms))
	for _, nym := range nyms {
		present[nym] = true
	}
	for nym, gid := range assign {
		if !present[nym] {
			delete(assign, nym)
			counts[gid]--
		}
	}
	for _, nym := range nyms {
		if _, ok := assign[nym]; ok {
			continue
		}
		best := -1
		for gid, c := range counts {
			if c < m.gsize && (best == -1 || c < counts[best]) {
				best = gid
			}
		}
		if best == -1 {
			best = len(counts)
			counts = append(counts, 0)
		}
		assign[nym] = best
		counts[best]++
	}
	m.counts[a.ID] = counts

	byGid := make([][]int, len(counts))
	for i, nym := range nyms {
		byGid[assign[nym]] = append(byGid[assign[nym]], i)
	}
	var shards []core.ShardSpec
	groups := make([][]string, len(counts))
	for gid, members := range byGid {
		if len(members) == 0 {
			continue
		}
		gNyms := make([]string, len(members))
		gRows := make([][]core.CSS, len(members))
		for j, i := range members {
			gNyms[j] = nyms[i]
			gRows[j] = rows[i]
		}
		groups[gid] = gNyms
		shards = append(shards, core.ShardSpec{ID: shardID(a.ID, gid), Sig: refShardSig(a.ID, gid, gNyms, gRows), N: len(gRows), Rows: gRows})
	}
	return shards, groups
}

// registryState is the registry's durable state in the map-of-maps shape of
// the model: table T, the per-policy membership versions, and the sticky group
// assignment (§VIII-C) with the number of groups each policy ever created.
type registryState struct {
	table     map[string]map[string]core.CSS
	memVer    map[string]uint64
	grpAssign map[string]map[string]int
	grpGroups map[string]int
}

// exportFull deep-copies the registry's durable state into the model's shape,
// for comparisons against the model and across a restart.
func (r *registry) exportFull() registryState {
	st := registryState{
		memVer:    make(map[string]uint64),
		grpAssign: make(map[string]map[string]int),
		grpGroups: make(map[string]int),
	}
	r.grpMu.Lock()
	defer r.grpMu.Unlock()
	r.mu.RLock()
	defer r.mu.RUnlock()
	st.table = make(map[string]map[string]core.CSS, r.tab.live)
	for nym, s := range r.tab.slotOf {
		row := r.tab.row(s)
		cells := make(map[string]core.CSS)
		for ci, v := range row {
			if v != 0 {
				cells[r.tab.conds[ci]] = v
			}
		}
		st.table[nym] = cells
	}
	for id, v := range r.memVer {
		st.memVer[id] = v
	}
	for id, gs := range r.grp {
		assign := make(map[string]int)
		for s, gid := range r.tab.gids[id] {
			if nym := r.tab.nyms[s]; gid != gidNone && nym != "" {
				assign[nym] = int(gid)
			}
		}
		st.grpAssign[id] = assign
		st.grpGroups[id] = len(gs.counts)
	}
	return st
}

// segmentedRoundTrip exports the registry as segments of segSlots slots and
// imports them again, through a publisher that is nothing but this registry
// and an empty rekey engine.
func segmentedRoundTrip(t *testing.T, reg *registry, segSlots int) {
	t.Helper()
	pub := &Publisher{reg: reg, keys: newKeyManager(1, 0), gen: 1}
	exp, err := pub.ExportStateSegments(segSlots, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.ImportStateSegments(segSlots, exp.Meta, exp.Table, exp.Cache, 2); err != nil {
		t.Fatal(err)
	}
}

// churnACPs builds a small policy set with overlapping conditions, so one
// credential write can dirty several policies at once.
func churnACPs(t *testing.T) []*policy.ACP {
	t.Helper()
	specs := []struct{ id, cond string }{
		{"pA", "role = doc"},
		{"pB", "role = doc && level >= 10"},
		{"pC", "level >= 10 && dept = rad"},
		{"pD", "dept = rad"},
	}
	var acps []*policy.ACP
	for _, s := range specs {
		a, err := policy.New(s.id, s.cond, "doc.xml", "Obj")
		if err != nil {
			t.Fatal(err)
		}
		acps = append(acps, a)
	}
	return acps
}

// TestColumnarRegistryMatchesModel drives the columnar registry and the
// map-of-maps model through the same random churn — registrations,
// credential updates, revocations, WAL-style diffs, segmented state
// round-trips and bumpAll storms — and demands identical snapshots at every
// checkpoint: per-policy qualified rows, membership versions, grouped shard
// specs (group numbers, signatures, counts, the rows gathered for an engine
// with no cache) and the sticky assignment itself, in all three of its forms:
// the gid column of the table, the per-group member slot lists, and the
// name → group maps of exportFull.
func TestColumnarRegistryMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			acps := churnACPs(t)
			const gsize = 3
			reg := newRegistry(acps, gsize)
			model := newModelRegistry(acps, gsize)
			rng := rand.New(rand.NewSource(seed))

			conds := []string{"role = doc", "level >= 10", "dept = rad"}
			nymPool := make([]string, 40)
			for i := range nymPool {
				nymPool[i] = fmt.Sprintf("pn-%02d", i)
			}
			// Half the draws come from 1..4, so an overwrite with the
			// identical value (which bumps nothing) happens often.
			randCells := func() map[string]core.CSS {
				cells := make(map[string]core.CSS)
				span := uint64(1_000_000)
				if rng.Intn(2) == 0 {
					span = 4
				}
				for _, c := range conds {
					if rng.Intn(2) == 0 {
						cells[c] = core.CSS(rng.Uint64()%span + 1)
					}
				}
				return cells
			}

			check := func(step int) {
				t.Helper()
				rows, vers := reg.snapshot(acps)
				gotShards, err := reg.snapshotGrouped(acps, unsolved)
				if err != nil {
					t.Fatalf("step %d: grouped snapshot: %v", step, err)
				}
				for _, a := range acps {
					wantNyms, wantRows := model.qualified(a)
					if len(wantRows) == 0 {
						wantRows = nil
					}
					if !reflect.DeepEqual(rows[a.ID], wantRows) {
						t.Fatalf("step %d policy %s: rows mismatch\n got %v\nwant %v (members %v)",
							step, a.ID, rows[a.ID], wantRows, wantNyms)
					}
					if vers[a.ID] != model.memVer[a.ID] {
						t.Fatalf("step %d policy %s: version %d, model %d", step, a.ID, vers[a.ID], model.memVer[a.ID])
					}
					wantShards, wantGroups := model.regroup(a)
					if !slices.EqualFunc(gotShards[a.ID], wantShards, func(g, w core.ShardSpec) bool { return reflect.DeepEqual(g, w) }) {
						t.Fatalf("step %d policy %s: shards mismatch\n got %+v\nwant %+v", step, a.ID, gotShards[a.ID], wantShards)
					}
					// The column names exactly the model's assignment — no
					// gid on a dead slot once the hints are consumed — and the
					// member lists are its groups, in pseudonym order.
					for s, gid := range reg.tab.gids[a.ID] {
						want, ok := model.assign[a.ID][reg.tab.nyms[s]]
						if !ok {
							want = int(gidNone)
						}
						if int(gid) != want {
							t.Fatalf("step %d policy %s: slot %d (%q) in group %d, model %d", step, a.ID, s, reg.tab.nyms[s], gid, want)
						}
					}
					gs := reg.grp[a.ID]
					if len(gs.members) != len(wantGroups) || len(gs.counts) != len(wantGroups) {
						t.Fatalf("step %d policy %s: %d member lists, %d counts, model has %d groups", step, a.ID, len(gs.members), len(gs.counts), len(wantGroups))
					}
					for gid, members := range gs.members {
						var got []string
						for _, s := range members {
							got = append(got, reg.tab.nyms[s])
						}
						if !slices.Equal(got, wantGroups[gid]) || gs.counts[gid] != len(got) {
							t.Fatalf("step %d policy %s group %d: members %v (count %d), model %v", step, a.ID, gid, got, gs.counts[gid], wantGroups[gid])
						}
					}
				}
				st := reg.exportFull()
				for _, a := range acps {
					for nym, gid := range model.assign[a.ID] {
						if st.grpAssign[a.ID][nym] != gid {
							t.Fatalf("step %d policy %s: %s assigned to %d, model %d",
								step, a.ID, nym, st.grpAssign[a.ID][nym], gid)
						}
					}
					if len(st.grpAssign[a.ID]) != len(model.assign[a.ID]) {
						t.Fatalf("step %d policy %s: %d assignments, model %d",
							step, a.ID, len(st.grpAssign[a.ID]), len(model.assign[a.ID]))
					}
				}
			}

			for step := 0; step < 400; step++ {
				nym := nymPool[rng.Intn(len(nymPool))]
				switch op := rng.Intn(10); {
				case op < 6:
					cells := randCells()
					reg.setCells(nym, cells)
					model.setCells(nym, cells)
				case op < 8:
					err := reg.revokeSubscription(nym)
					if model.revokeSubscription(nym) != (err == nil) {
						t.Fatalf("step %d: revokeSubscription(%s) disagreement: %v", step, nym, err)
					}
				case op < 9:
					cond := conds[rng.Intn(len(conds))]
					err := reg.revokeCredential(nym, cond)
					if model.revokeCredential(nym, cond) != (err == nil) {
						t.Fatalf("step %d: revokeCredential(%s,%s) disagreement: %v", step, nym, cond, err)
					}
				default:
					if rng.Intn(2) == 0 {
						reg.bumpAll()
						for id := range model.memVer {
							model.memVer[id]++
						}
					} else {
						// Segmented export and import. With churn pending the
						// import would settle it as a batch of its own, which
						// the model (one batch per check) cannot mirror — that
						// case is TestSegmentedRestartPendingChurn's; here the
						// columns, slots and signatures must survive as they are.
						check(step)
						segmentedRoundTrip(t, reg, 8)
						check(step)
					}
				}
				if step%7 == 0 || step == 399 {
					check(step)
				}
			}
		})
	}
}

// TestMinTracker cross-checks the bitset least-full tracker against a naive
// linear scan over random occupancy traffic.
func TestMinTracker(t *testing.T) {
	for _, capacity := range []int{1, 3, 64, 65} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			tr := newMinTracker(capacity)
			var occ []int // gid → occupancy
			naiveLeast := func() (int, bool) {
				best := -1
				for gid, c := range occ {
					if c < capacity && (best == -1 || c < occ[best]) {
						best = gid
					}
				}
				return best, best != -1
			}
			for step := 0; step < 5000; step++ {
				switch r := rng.Intn(10); {
				case r == 0 || len(occ) == 0:
					gid := len(occ)
					occ = append(occ, 0)
					tr.addAt(gid, 0)
				case r < 6: // fill via least()
					gotGid, gotOK := tr.least()
					wantGid, wantOK := naiveLeast()
					if gotOK != wantOK || (gotOK && gotGid != wantGid) {
						t.Fatalf("step %d: least() = (%d,%v), naive (%d,%v), occ %v",
							step, gotGid, gotOK, wantGid, wantOK, occ)
					}
					if gotOK {
						tr.move(gotGid, occ[gotGid], occ[gotGid]+1)
						occ[gotGid]++
					}
				default: // drain a random non-empty group
					gid := rng.Intn(len(occ))
					if occ[gid] == 0 {
						continue
					}
					tr.move(gid, occ[gid], occ[gid]-1)
					occ[gid]--
				}
			}
		})
	}
}

// TestCSSTableCompaction exercises the slot lifecycle directly: interleaved
// adds and deletes across compactions must preserve sorted iteration, row
// content and the live count, while compaction recycles retired slots.
func TestCSSTableCompaction(t *testing.T) {
	conds := []string{"c0", "c1"}
	tab := newCSSTable(conds)
	live := make(map[string][2]core.CSS)
	rng := rand.New(rand.NewSource(7))
	verify := func(step int) {
		t.Helper()
		if tab.live != len(live) {
			t.Fatalf("step %d: live %d, want %d", step, tab.live, len(live))
		}
		var prev string
		n := 0
		for _, s := range tab.sortedLive() {
			nym := tab.nyms[s]
			if nym == "" {
				continue
			}
			if nym <= prev {
				t.Fatalf("step %d: iteration out of order: %q after %q", step, nym, prev)
			}
			prev = nym
			row := tab.row(s)
			want := live[nym]
			if row[0] != want[0] || row[1] != want[1] {
				t.Fatalf("step %d: row %q = %v, want %v", step, nym, row, want)
			}
			n++
		}
		if n != len(live) {
			t.Fatalf("step %d: iterated %d rows, want %d", step, n, len(live))
		}
	}
	for step := 0; step < 2000; step++ {
		nym := fmt.Sprintf("n%03d", rng.Intn(120))
		switch rng.Intn(5) {
		case 0:
			tab.deleteRow(nym)
			delete(live, nym)
		case 1:
			if tab.needsCompact() || rng.Intn(20) == 0 {
				tab.compact()
			}
		default:
			row := tab.row(tab.ensureRow(nym))
			v := [2]core.CSS{core.CSS(rng.Uint64()%999 + 1), core.CSS(rng.Uint64()%999 + 1)}
			row[0], row[1] = v[0], v[1]
			live[nym] = v
		}
		if step%50 == 0 {
			verify(step)
		}
	}
	tab.compact()
	verify(2000)
	if len(tab.pendAdd) != 0 || tab.dead != 0 {
		t.Fatalf("after compact: pendAdd %d, dead %d", len(tab.pendAdd), tab.dead)
	}
}
