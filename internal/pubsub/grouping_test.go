package pubsub

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/policy"
)

// subscriberWith is a subscriber holding exactly the given CSS for acp0's
// condition — one registration of a pseudonym, current or long revoked.
func subscriberWith(t testing.TB, nym string, css core.CSS) *Subscriber {
	t.Helper()
	s, err := NewSubscriber(nym)
	if err != nil {
		t.Fatal(err)
	}
	s.css["attr0 >= 1"] = css
	return s
}

// decrypts reports whether the subscriber obtains acp0's subdocument.
func decrypts(s *Subscriber, b *Broadcast) bool {
	got, _ := s.Decrypt(b)
	return len(got["sd0"]) > 0
}

// slotLifetimeEnv is a grouped publisher of one policy with members enough
// for several groups, published once, whose member `leaver` (holding a warm
// KEV cache in `old`) is then revoked while churn pushes the table past its
// compaction threshold before any grouped snapshot consumes the leave.
type slotLifetimeEnv struct {
	*deltaEnv
	leaver string
	old    *Subscriber
	slot   int32 // the leaver's slot
	gid    int32 // and its group
	sig    string
}

func newSlotLifetimeEnv(t *testing.T) *slotLifetimeEnv {
	t.Helper()
	env := &slotLifetimeEnv{deltaEnv: newDeltaEnv(t, 1, 4)}
	var nyms []string
	for i := 0; i < 40; i++ {
		nyms = append(nyms, env.join(t, 1))
	}
	b, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	env.leaver = nyms[17]
	env.old = env.subscriber(t, env.leaver)
	if !decrypts(env.old, b) {
		t.Fatal("member does not decrypt before it leaves")
	}
	reg := env.pub.reg
	env.slot = reg.tab.slotOf[env.leaver]
	env.gid = reg.tab.gids["acp0"][env.slot]
	for _, sh := range reg.grp["acp0"].shards {
		if sh.GID == int(env.gid) {
			env.sig = sh.Sig
		}
	}
	if env.gid == gidNone || env.sig == "" {
		t.Fatal("member has no group after a publish")
	}

	if err := env.pub.RevokeSubscription(env.leaver); err != nil {
		t.Fatal(err)
	}
	// Rows that qualify for nothing grouped would do; these join acp0 too,
	// which makes the refill order part of what is checked. Every join runs
	// maybeCompact, so the threshold is crossed by a compaction of its own.
	for i := 0; reg.tab.dead > 0; i++ {
		if i > 1000 {
			t.Fatal("churn never forced a compaction")
		}
		env.join(t, 1)
	}
	if !slices.Contains(reg.tab.parked, env.slot) || slices.Contains(reg.tab.freed, env.slot) {
		t.Fatalf("after a compaction the unconsumed leaver's slot %d is parked %v / free %v; want parked", env.slot, reg.tab.parked, reg.tab.freed)
	}
	return env
}

// checkLeaverGone: after the publish that consumed the leave, the leaver's
// group was re-digested without it, no column names its slot, its old KEV no
// longer opens anything, and the newcomer — whose row never sat in the
// leaver's slot — derives.
func (env *slotLifetimeEnv) checkLeaverGone(t *testing.T, pub *Publisher, newcomer string) {
	t.Helper()
	b, err := pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	reg := pub.reg
	gs := reg.grp["acp0"]
	for gid, members := range gs.members {
		for _, s := range members {
			if reg.tab.nyms[s] == "" || reg.tab.nyms[s] == env.leaver {
				t.Errorf("group %d still lists slot %d (%q)", gid, s, reg.tab.nyms[s])
			}
		}
	}
	for _, sh := range gs.shards {
		if sh.GID == int(env.gid) && sh.Sig == env.sig {
			t.Error("the leaver's group kept its signature")
		}
	}
	if decrypts(env.old, b) {
		t.Error("the leaver's old KEV still opens the next epoch")
	}
	if !decrypts(env.subscriber(t, newcomer), b) {
		t.Error("the newcomer does not derive")
	}
}

// TestDeadSlotWaitsForItsLeave is the slot-recycling rule: compact() does not
// hand a dead slot to a new pseudonym while a gid column still names it, so
// the group state's slot lists can never resolve to somebody else's row.
func TestDeadSlotWaitsForItsLeave(t *testing.T) {
	env := newSlotLifetimeEnv(t)
	reg := env.pub.reg
	newcomer := env.join(t, 1)
	if reg.tab.slotOf[newcomer] == env.slot {
		t.Fatalf("newcomer took slot %d before the leave reached its group", env.slot)
	}
	if got := reg.tab.gids["acp0"][env.slot]; got != env.gid {
		t.Fatalf("leaver's slot holds gid %d before the publish, want %d", got, env.gid)
	}
	s0 := env.pub.Stats()
	env.checkLeaverGone(t, env.pub, newcomer)
	if s1 := env.pub.Stats(); s1.FullRegroups != s0.FullRegroups {
		t.Errorf("%d full regroups, want the leave replayed from its hint", s1.FullRegroups-s0.FullRegroups)
	}
	if got := reg.tab.gids["acp0"][env.slot]; got != gidNone {
		t.Errorf("leaver's slot still holds gid %d after the publish", got)
	}
	// Released, the slot is recycled by the next compaction like any other.
	reg.mu.Lock()
	reg.tab.compact()
	reg.mu.Unlock()
	if len(reg.tab.parked) != 0 || !slices.Contains(reg.tab.freed, env.slot) {
		t.Errorf("released slot %d not freed: parked %v, free %v", env.slot, reg.tab.parked, reg.tab.freed)
	}
}

// TestDeadSlotAcrossSegmentedRestart: the same, with the publisher stopped
// between the revocation and the publish. The segment stores no group for the
// dead slot, the import regroups without the leaver, and nothing is scanned.
func TestDeadSlotAcrossSegmentedRestart(t *testing.T) {
	env := newSlotLifetimeEnv(t)
	newcomer := env.join(t, 1)
	meta, table, cache := segmentsOf(t, env.pub, 16)

	env2 := newDeltaEnv(t, 1, 4)
	if _, err := env2.pub.ImportStateSegments(16, meta, table, cache, 2); err != nil {
		t.Fatal(err)
	}
	tab := env2.pub.reg.tab
	if tab.nyms[env.slot] != "" || tab.gids["acp0"][env.slot] != gidNone {
		t.Fatalf("slot %d restored as %q in group %d, want dead and ungrouped", env.slot, tab.nyms[env.slot], tab.gids["acp0"][env.slot])
	}
	if s := tab.slotOf[newcomer]; tab.gids["acp0"][s] == gidNone {
		t.Error("the newcomer has no group after the import")
	}
	env.checkLeaverGone(t, env2.pub, newcomer)
	if st := env2.pub.Stats(); st.FullRegroups != 0 {
		t.Errorf("%d full regroups after the import, want 0", st.FullRegroups)
	}
}

// TestGatherRefusesDeadAndEmptyRows: group state that points at a dead slot,
// or at a row missing a CSS, fails the publish before anything is hashed —
// H(0‖z) is computable by anyone — whether the row is met re-digesting a dirty
// group or gathering a clean one for an engine that lost its cache. The next
// publish rebuilds the group state from the table.
func TestGatherRefusesDeadAndEmptyRows(t *testing.T) {
	for name, corrupt := range map[string]func(t *testing.T, env *deltaEnv, victim, neighbour string){
		// A member list names a slot whose row is gone; churn in the group
		// makes the snapshot digest it.
		"dead slot in a dirty group": func(t *testing.T, env *deltaEnv, victim, neighbour string) {
			reg := env.pub.reg
			reg.mu.Lock()
			reg.tab.deleteRow(victim)
			reg.mu.Unlock()
			css, err := core.NewCSS()
			if err != nil {
				t.Fatal(err)
			}
			env.css[neighbour]["attr0 >= 1"] = css
			reg.setCells(neighbour, map[string]core.CSS{"attr0 >= 1": css})
		},
		// A cell vanishes behind the group state's back; only an engine that
		// must re-solve ever reads the row.
		"zero cell in a clean group": func(t *testing.T, env *deltaEnv, victim, _ string) {
			reg := env.pub.reg
			reg.mu.Lock()
			clear(reg.tab.row(reg.tab.slotOf[victim]))
			reg.mu.Unlock()
			env.pub.ResetRekeyCache()
		},
	} {
		t.Run(name, func(t *testing.T) {
			env := newDeltaEnv(t, 1, 4)
			var nyms []string
			for i := 0; i < 10; i++ {
				nyms = append(nyms, env.join(t, 1))
			}
			if _, err := env.pub.Publish(env.doc); err != nil {
				t.Fatal(err)
			}
			// pn-0 … pn-3 fill group 0 in pseudonym order.
			corrupt(t, env, nyms[1], nyms[2])
			s0 := env.pub.Stats()
			if _, err := env.pub.Publish(env.doc); err == nil {
				t.Fatal("publish over corrupt group state succeeded")
			}
			if s1 := env.pub.Stats(); s1.Solves != s0.Solves {
				t.Errorf("%d solves ran on a refused publish", s1.Solves-s0.Solves)
			}
			b, err := env.pub.Publish(env.doc)
			if err != nil {
				t.Fatalf("publish after the refused one: %v", err)
			}
			if s2 := env.pub.Stats(); s2.FullRegroups != s0.FullRegroups+1 {
				t.Errorf("%d full regroups after the refused publish, want 1", s2.FullRegroups-s0.FullRegroups)
			}
			if decrypts(env.subscriber(t, nyms[1]), b) || !decrypts(env.subscriber(t, nyms[2]), b) {
				t.Error("after the rebuild the emptied row decrypts, or its neighbour does not")
			}
		})
	}
}

// TestPublishRetakesSnapshotWhenCacheMoves: rows are handed to the engine only
// for shards it had no solve for when the snapshot asked; a cache reset
// between snapshot and solve is an error of that one attempt, not a re-read
// of the table outside its lock, and Publish answers it with a new snapshot.
func TestPublishRetakesSnapshotWhenCacheMoves(t *testing.T) {
	env := newDeltaEnv(t, 2, 4)
	for i := 0; i < 10; i++ {
		env.join(t, 2)
	}
	if _, err := env.pub.Publish(env.doc); err != nil {
		t.Fatal(err)
	}
	relevant := env.pub.policiesFor("doc")
	cfgs := policy.Configurations(env.doc.Names(), relevant)
	shards, err := env.pub.reg.snapshotGrouped(relevant, env.pub.keys.engine.HasShard)
	if err != nil {
		t.Fatal(err)
	}
	for id, specs := range shards {
		for _, sp := range specs {
			if sp.Rows != nil || sp.N == 0 {
				t.Fatalf("%s shard %s of a steady state: %d rows gathered for N=%d", id, sp.ID, len(sp.Rows), sp.N)
			}
		}
	}
	env.pub.ResetRekeyCache()
	s0 := env.pub.Stats()
	if _, _, _, err := env.pub.keys.configKeysGrouped(cfgs, shards); !errors.Is(err, core.ErrShardRows) {
		t.Fatalf("rekey from a snapshot older than the cache reset: %v, want ErrShardRows", err)
	}
	if s1 := env.pub.Stats(); s1.Solves != s0.Solves {
		t.Errorf("%d solves ran without rows", s1.Solves-s0.Solves)
	}
	if _, err := env.pub.Publish(env.doc); err != nil {
		t.Fatalf("publish after the reset: %v", err)
	}
	if s2 := env.pub.Stats(); s2.Solves-s0.Solves != 6 || s2.FullRegroups != s0.FullRegroups {
		t.Errorf("publish after the reset: %d solves, %d full regroups; want the 6 shards gathered and solved, no scan", s2.Solves-s0.Solves, s2.FullRegroups-s0.FullRegroups)
	}
}

// TestGroupedChurnRaceSameShard races registrations and revocations into ONE
// shard against a publisher and against cache resets (run with -race in CI;
// onboard is the workload where this interleaving is real). After every
// publish, the registrations that derive the key are exactly the membership of
// a table state that existed between the publish's start and its end; every
// other registration of the last few states — leavers' old KEVs included —
// gets nothing. A second policy whose one shard never changes is the shard
// that is handed over without rows: a publish that loses it to a reset between
// snapshot and solve retries, and every publish succeeds.
func TestGroupedChurnRaceSameShard(t *testing.T) {
	const epochs, groupSize = 200, 8
	env := newDeltaEnv(t, 2, groupSize)
	env.pub.reg.setCells("pn-still", map[string]core.CSS{"attr1 >= 1": 7})

	// log[i] is the membership (nym → the CSS it registered with) after i
	// mutations. A mutation and its log entry are one step under logMu, so a
	// snapshot taken while the log grew from a to b entries saw one of
	// log[a-1 … b-1].
	var logMu sync.Mutex
	log := []map[string]core.CSS{{}}
	mutate := func(nym string) error {
		logMu.Lock()
		defer logMu.Unlock()
		next := make(map[string]core.CSS, groupSize)
		for k, v := range log[len(log)-1] {
			next[k] = v
		}
		if _, in := next[nym]; in {
			if err := env.pub.RevokeSubscription(nym); err != nil {
				return err
			}
			delete(next, nym)
		} else {
			css, err := core.NewCSS()
			if err != nil {
				return err
			}
			env.pub.reg.setCells(nym, map[string]core.CSS{"attr0 >= 1": css})
			next[nym] = css
		}
		log = append(log, next)
		return nil
	}
	// The anchor never leaves, so the configuration always has a row; with
	// seven churners the policy never outgrows group 0.
	if err := mutate("pn-anchor"); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, nyms := range [][]string{{"pn-a", "pn-b", "pn-c", "pn-d"}, {"pn-e", "pn-f", "pn-g"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := mutate(nyms[i%len(nyms)]); err != nil {
					t.Error(err)
					return
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Seldom enough that most snapshots find the still shard solved,
			// often enough that some publishes lose it before they rekey.
			env.pub.ResetRekeyCache()
			for i := 0; i < 32; i++ {
				runtime.Gosched()
			}
		}
	}()

	// A second publisher that checks nothing spends its whole time between
	// snapshot and solve, which is where a reset has to land to cost a publish
	// its rows; it also takes churn away from under the checked publisher.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := env.pub.Publish(env.doc); err != nil {
				t.Errorf("unchecked publish: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()

	seen := func() int {
		logMu.Lock()
		defer logMu.Unlock()
		return len(log) - 1
	}
	for epoch, last := 0, 0; epoch < epochs; epoch++ {
		// Every epoch publishes over fresh churn.
		for seen() == last {
			runtime.Gosched()
		}
		from := seen()
		b, err := env.pub.Publish(env.doc)
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		to := seen()
		last = to
		for _, ci := range b.Configs {
			if n := len(ci.Grouped.Shards); n != 1 {
				t.Fatalf("epoch %d: configuration %s has %d shards, want the churn confined to one", epoch, ci.Key, n)
			}
		}
		logMu.Lock()
		window := log[max(0, from-4) : to+1]
		candidates := log[from : to+1]
		logMu.Unlock()
		// Everyone registered in or shortly before the window, under every
		// CSS they held there.
		derived := make(map[string]core.CSS)
		tried := make(map[string]bool)
		for _, state := range window {
			for nym, css := range state {
				key := fmt.Sprintf("%s/%d", nym, css)
				if tried[key] {
					continue
				}
				tried[key] = true
				if decrypts(subscriberWith(t, nym, css), b) {
					if _, twice := derived[nym]; twice {
						t.Fatalf("epoch %d: two registrations of %s derive", epoch, nym)
					}
					derived[nym] = css
				}
			}
		}
		if !slices.ContainsFunc(candidates, func(state map[string]core.CSS) bool {
			if len(state) != len(derived) {
				return false
			}
			for nym, css := range state {
				if derived[nym] != css {
					return false
				}
			}
			return true
		}) {
			t.Fatalf("epoch %d: %d registrations derive the key; no table state of the %d between the publish's start and end has exactly those members", epoch, len(derived), len(candidates))
		}
	}
}

// groupedChurnRegistry is a bare grouped registry of the churn-stream shape:
// rows of attr0 only in the first half, both attributes in the second, two
// policies, groups of 128.
func groupedChurnRegistry(tb testing.TB, rows int) (*registry, []*policy.ACP) {
	tb.Helper()
	var acps []*policy.ACP
	for i := 0; i < 2; i++ {
		a, err := policy.New(fmt.Sprintf("acp%d", i), fmt.Sprintf("attr%d >= 1", i), "doc", fmt.Sprintf("sd%d", i))
		if err != nil {
			tb.Fatal(err)
		}
		acps = append(acps, a)
	}
	reg := newRegistry(acps, 128)
	for i := 0; i < rows; i++ {
		reg.setCells(fmt.Sprintf("pn-%06d", i), churnCells(i, i >= rows/2))
	}
	return reg, acps
}

func churnCells(i int, both bool) map[string]core.CSS {
	cells := map[string]core.CSS{"attr0 >= 1": core.CSS(2*i + 1)}
	if both {
		cells["attr1 >= 1"] = core.CSS(2*i + 2)
	}
	return cells
}

func solvedAll(string, string) bool { return true }

// TestGroupStateBytesPerPolicyRow is the grouping layer's memory budget at
// 50 000 rows × 2 policies: what it keeps per policy row — gid column entry,
// member slot, its share of per-group state — stays under 16 bytes by
// GroupMemory's estimate and by the heap the first grouped snapshot leaves
// behind. (It was ≈ 80 B while the layer held a name → group map, name lists
// and a copy of every row.)
func TestGroupStateBytesPerPolicyRow(t *testing.T) {
	const rows, budget = 50_000, 16
	reg, acps := groupedChurnRegistry(t, rows)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// What the first snapshot would release rather than build goes first: the
	// load's pending-add list, and its hints, which a full regroup ignores.
	reg.mu.Lock()
	reg.tab.compact()
	clear(reg.pend)
	reg.mu.Unlock()
	before := heap()
	if _, err := reg.snapshotGrouped(acps, solvedAll); err != nil {
		t.Fatal(err)
	}
	grown := int64(heap() - before)
	policyRows, est := reg.groupMemory()
	if want := rows + rows/2; policyRows != want {
		t.Fatalf("%d policy rows, want %d", policyRows, want)
	}
	t.Logf("%d policy rows: estimate %d B (%.1f each), heap growth %d B (%.1f each)", policyRows, est, float64(est)/float64(policyRows), grown, float64(grown)/float64(policyRows))
	if est > budget*int64(policyRows) {
		t.Errorf("group state estimated at %d B for %d policy rows (%.1f B each), budget %d", est, policyRows, float64(est)/float64(policyRows), budget)
	}
	if grown > budget*int64(policyRows) {
		t.Errorf("first grouped snapshot left %d B on the heap for %d policy rows (%.1f B each), budget %d", grown, policyRows, float64(grown)/float64(policyRows), budget)
	}
	if est < grown*3/4 || est > grown*5/4 {
		t.Errorf("estimate %d B and measured growth %d B disagree by more than a quarter", est, grown)
	}
	runtime.KeepAlive(reg)
}

// BenchmarkApplyChurn replays 8 membership events — 4 leaves, 4 joins — into
// the group state of a 25 000-row, 2-policy table (churn-stream's shape and
// event count; the table keeps its size). The events themselves are timed
// too. Nothing here may allocate in proportion to the table or to the number
// of shards: a leave is a column write and a scan of one member list, a join
// a tracker pick and an insert, and only the ≈ 8 dirty groups are digested.
func BenchmarkApplyChurn(b *testing.B) {
	const rows = 25_000
	reg, acps := groupedChurnRegistry(b, rows)
	if _, err := reg.snapshotGrouped(acps, solvedAll); err != nil {
		b.Fatal(err)
	}
	// Oldest first, per kind of row, so both policies see leaves and joins.
	queues := [2][]int{}
	for i := 0; i < rows; i++ {
		queues[2*i/rows] = append(queues[2*i/rows], i)
	}
	next := rows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			q := &queues[k%2]
			if err := reg.revokeSubscription(fmt.Sprintf("pn-%06d", (*q)[0])); err != nil {
				b.Fatal(err)
			}
			reg.setCells(fmt.Sprintf("pn-%06d", next), churnCells(next, k%2 == 1))
			*q = append((*q)[1:], next)
			next++
		}
		reg.grpMu.Lock()
		reg.mu.Lock()
		for _, a := range acps {
			hints := reg.pend[a.ID]
			delete(reg.pend, a.ID)
			if err := reg.applyChurn(reg.grp[a.ID], a.ID, hints); err != nil {
				b.Fatal(err)
			}
			reg.grp[a.ID].ver = reg.memVer[a.ID]
		}
		reg.maybeCompact()
		reg.mu.Unlock()
		reg.grpMu.Unlock()
	}
}

// BenchmarkGroupedSnapshotCold is a grouped snapshot for an engine that holds
// nothing (rekey-storm resets its cache every op): 8 000 rows, 2 policies, all
// ≈ 94 shards gathered out of table T — ≈ 12 000 row copies, what the
// grouping layer used to keep resident instead.
func BenchmarkGroupedSnapshotCold(b *testing.B) {
	reg, acps := groupedChurnRegistry(b, 8_000)
	if _, err := reg.snapshotGrouped(acps, solvedAll); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specs, err := reg.snapshotGrouped(acps, unsolved)
		if err != nil || len(specs["acp0"][0].Rows) != 128 {
			b.Fatalf("cold snapshot: %v", err)
		}
	}
}
