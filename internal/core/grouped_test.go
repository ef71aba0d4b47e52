package core

import (
	"bytes"
	"testing"

	"ppcd/internal/ff64"
)

// deriveGrouped derives the configuration key through one member row,
// verifying against the expected key.
func deriveGrouped(t *testing.T, row []CSS, ck GroupedConfigKeys) {
	t.Helper()
	k, _, err := DeriveKeyGrouped(row, ck.Hdr, func(k ff64.Elem) bool { return k == ck.Key })
	if err != nil {
		t.Fatalf("member derivation failed: %v", err)
	}
	if k != ck.Key {
		t.Fatal("member derived wrong configuration key")
	}
}

// shardOf is the spec of a shard handed over with its rows.
func shardOf(id, sig string, rows [][]CSS) ShardSpec {
	return ShardSpec{ID: id, Sig: sigOf(sig), N: len(rows), Rows: rows}
}

// leased is sh as a snapshot hands it over when e holds its solve: the lease
// in place of the rows.
func leased(t testing.TB, e *Engine, sh ShardSpec) ShardSpec {
	t.Helper()
	l, ok := e.Lease(sh.ID, sh.Sig)
	if !ok {
		t.Fatalf("the engine holds no solve of shard %s", sh.ID)
	}
	return ShardSpec{ID: sh.ID, Sig: sh.Sig, N: sh.N, Lease: l}
}

func groupedSpecs(shA1, shA2, shB ShardSpec) []GroupedConfigSpec {
	return []GroupedConfigSpec{
		{ID: "A", Shards: []ShardSpec{shA1, shA2}},
		{ID: "A|B", Shards: []ShardSpec{shA1, shA2, shB}},
	}
}

func TestEngineGroupedRekeyAndDerive(t *testing.T) {
	e := NewEngine(2)
	shA1 := shardOf("acpA/0", "s1", engRows(0, 3, 2))
	shA2 := shardOf("acpA/1", "s2", engRows(50, 2, 2))
	shB := shardOf("acpB/0", "s3", engRows(100, 2, 2))

	out, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d results", len(out))
	}
	// Shared shards solve once: 3 distinct shards across 2 configurations.
	if got := e.Stats().Solves; got != 3 {
		t.Errorf("first grouped session solved %d shards, want 3", got)
	}
	for _, row := range append(append([][]CSS{}, shA1.Rows...), shA2.Rows...) {
		deriveGrouped(t, row, out["A"])
		deriveGrouped(t, row, out["A|B"])
	}
	for _, row := range shB.Rows {
		deriveGrouped(t, row, out["A|B"])
		if _, _, err := DeriveKeyGrouped(row, out["A"].Hdr, func(k ff64.Elem) bool { return k == out["A"].Key }); err != ErrBadKey {
			t.Errorf("non-member derived config A's key: %v", err)
		}
	}
	// The same shard sub-header backs both configurations, with distinct
	// configuration keys and wraps.
	if out["A"].Hdr.Shards[0].Hdr != out["A|B"].Hdr.Shards[0].Hdr {
		t.Error("shared shard not reused across configurations")
	}
	if out["A"].Key == out["A|B"].Key {
		t.Error("configurations share a key")
	}
}

func TestEngineGroupedIncrementalShardSolve(t *testing.T) {
	e := NewEngine(0)
	shA1 := shardOf("acpA/0", "s1", engRows(0, 3, 2))
	shA2 := shardOf("acpA/1", "s2", engRows(50, 2, 2))
	shB := shardOf("acpB/0", "s3", engRows(100, 2, 2))

	first, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB))
	if err != nil {
		t.Fatal(err)
	}
	base := e.Stats().Solves

	// Steady state: every shard leased → full cache hit, same headers.
	second, err := e.RekeyAllGrouped(groupedSpecs(leased(t, e, shA1), leased(t, e, shA2), leased(t, e, shB)))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base {
		t.Errorf("steady-state grouped rekey solved %d shards", got-base)
	}
	if second["A"].Rebuilt || second["A"].Hdr != first["A"].Hdr || second["A"].Key != first["A"].Key {
		t.Error("steady state did not reuse the cached grouped build")
	}

	// One shard's content changes (a leave): exactly one shard re-solves,
	// but every configuration containing it gets a fresh key and fresh
	// wraps while the clean shards keep their sub-headers.
	shA2dirty := shardOf("acpA/1", "s2'", engRows(50, 1, 2))
	third, err := e.RekeyAllGrouped(groupedSpecs(leased(t, e, shA1), shA2dirty, leased(t, e, shB)))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base+1 {
		t.Errorf("single-shard change solved %d shards, want 1", got-base)
	}
	for _, id := range []string{"A", "A|B"} {
		if !third[id].Rebuilt {
			t.Errorf("config %s not rebuilt after shard change", id)
		}
		if third[id].Key == first[id].Key {
			t.Errorf("config %s kept its key across a membership change", id)
		}
		if third[id].Hdr.Shards[0].Hdr != first[id].Hdr.Shards[0].Hdr {
			t.Errorf("config %s re-solved a clean shard", id)
		}
		if third[id].Hdr.Shards[1].Hdr == first[id].Hdr.Shards[1].Hdr {
			t.Errorf("config %s kept the dirty shard's sub-header", id)
		}
	}
	// Remaining member of the dirty shard still derives; departed row fails.
	deriveGrouped(t, shA2dirty.Rows[0], third["A"])
	departed := shA2.Rows[1]
	if _, _, err := DeriveKeyGrouped(departed, third["A"].Hdr, func(k ff64.Elem) bool { return k == third["A"].Key }); err != ErrBadKey {
		t.Error("departed row still derives the new configuration key")
	}

	// A vanished shard (all members left) changes the configuration's slots
	// without any solve.
	fourth, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "A", Shards: []ShardSpec{leased(t, e, shA1)}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base+1 {
		t.Errorf("shard removal solved %d shards, want 0", got-base-1)
	}
	if !fourth["A"].Rebuilt || len(fourth["A"].Hdr.Shards) != 1 {
		t.Error("shard removal did not reassemble the configuration")
	}

	// Reset forgets everything, including shard solves.
	e.Reset()
	if _, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB)); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base+1+3 {
		t.Errorf("post-Reset rekey solved %d shards, want 3", got-base-1)
	}
}

func TestEngineGroupedRejectsEmptyConfig(t *testing.T) {
	e := NewEngine(0)
	if _, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "A"}}); err == nil {
		t.Fatal("zero-row grouped configuration accepted")
	}
	sh := shardOf("acpA/0", "s", [][]CSS{{}})
	if _, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "A", Shards: []ShardSpec{sh}}}); err == nil {
		t.Fatal("empty CSS row accepted")
	}
}

// TestEngineGroupedRowsOnlyWhenUnsolved: a shard the engine holds a solve for
// is served from its lease alone — across a steady state, a reassembly and a
// neighbour's re-solve —; a spec with neither its rows nor a lease is refused
// before any solve runs; and a session over leases taken before a Reset
// wraps under them, solving only what came with rows, without putting the
// leased solves back into the emptied cache.
func TestEngineGroupedRowsOnlyWhenUnsolved(t *testing.T) {
	e := NewEngine(2)
	shA1 := shardOf("acpA/0", "s1", engRows(0, 3, 2))
	shA2 := shardOf("acpA/1", "s2", engRows(50, 2, 2))
	shB := shardOf("acpB/0", "s3", engRows(100, 2, 2))

	if _, ok := e.Lease(shA1.ID, shA1.Sig); ok {
		t.Fatal("a fresh engine leases a solve")
	}
	first, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB))
	if err != nil {
		t.Fatal(err)
	}
	_, changed := e.Lease(shA1.ID, sigOf("s1'"))
	_, foreign := e.Lease("acpC/0", shA1.Sig)
	if l, ok := e.Lease(shA1.ID, shA1.Sig); !ok || l.hdr != first["A"].Hdr.Shards[0].Hdr || changed || foreign {
		t.Fatal("Lease does not answer with the solve for exactly the solved (ID, Sig)")
	}
	base := e.Stats().Solves

	// A reassembly without a single row: A's second group emptied, so A's
	// slots no longer match its leased shards, while A|B is unchanged.
	second, err := e.RekeyAllGrouped([]GroupedConfigSpec{
		{ID: "A", Shards: []ShardSpec{leased(t, e, shA1)}},
		{ID: "A|B", Shards: []ShardSpec{leased(t, e, shA1), leased(t, e, shA2), leased(t, e, shB)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !second["A"].Rebuilt || second["A|B"].Rebuilt || second["A"].Hdr.Shards[0].Hdr != first["A"].Hdr.Shards[0].Hdr {
		t.Error("leased specs: want A reassembled over its cached shard and A|B a cache hit")
	}
	if got := e.Stats().Solves; got != base {
		t.Errorf("a session over leases alone ran %d solves", got-base)
	}
	deriveGrouped(t, shA1.Rows[0], second["A"])
	// One dirty shard brings its rows; its clean neighbours need none.
	shA2dirty := shardOf("acpA/1", "s2'", engRows(50, 1, 2))
	third, err := e.RekeyAllGrouped(groupedSpecs(leased(t, e, shA1), shA2dirty, leased(t, e, shB)))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base+1 {
		t.Errorf("%d solves for one dirty shard among leased clean ones, want 1", got-base)
	}
	deriveGrouped(t, shA1.Rows[0], third["A"])
	deriveGrouped(t, shA2dirty.Rows[0], third["A|B"])

	// Neither rows nor a lease, and rows that are not the N the signature
	// digests: refused, nothing solved.
	short := shardOf("acpB/0", "s3'", shB.Rows[:1])
	short.N = 2
	for name, specs := range map[string][]GroupedConfigSpec{
		"neither":  groupedSpecs(leased(t, e, shA1), ShardSpec{ID: "acpA/1", Sig: sigOf("s2''"), N: 2}, leased(t, e, shB)),
		"mismatch": groupedSpecs(leased(t, e, shA1), leased(t, e, shA2dirty), short),
	} {
		if _, err := e.RekeyAllGrouped(specs); err == nil {
			t.Errorf("%s: a shard without its rows or a lease was accepted", name)
		}
	}
	if got := e.Stats().Solves; got != base+1 {
		t.Errorf("refused sessions ran %d solves", got-base-1)
	}

	// Leases taken before a Reset still serve their session.
	specs := groupedSpecs(leased(t, e, shA1), shardOf("acpA/1", "s2", shA2.Rows), leased(t, e, shB))
	e.Reset()
	fourth, err := e.RekeyAllGrouped(specs)
	if err != nil {
		t.Fatalf("a session over leases taken before a Reset: %v", err)
	}
	if got := e.Stats().Solves; got != base+2 {
		t.Errorf("a session over two leases and one shard of rows after a Reset ran %d solves, want 1", got-base-1)
	}
	if fourth["A"].Hdr.Shards[0].Hdr != first["A"].Hdr.Shards[0].Hdr {
		t.Error("the leased shard was not wrapped under as leased")
	}
	for _, row := range append(append(shA1.Rows[:1:1], shA2.Rows...), shB.Rows...) {
		deriveGrouped(t, row, fourth["A|B"])
	}
	if _, ok := e.Lease(shA1.ID, shA1.Sig); ok {
		t.Error("a leased solve went back into the cache a Reset emptied")
	}
	if _, ok := e.Lease(shA2.ID, shA2.Sig); !ok {
		t.Error("the session's own solve did not land in the cache")
	}
}

// installSession installs what one session reported into e, from decoded
// copies of its sub-headers: a solved shard once, with the sub-header of the
// first slot naming it.
func installSession(t *testing.T, e *Engine, specs []GroupedConfigSpec, out map[string]GroupedConfigKeys) {
	t.Helper()
	var grouped []CachedGrouped
	var shards []CachedShard
	seen := make(map[string]bool)
	for _, spec := range specs {
		ck := out[spec.ID]
		g := CachedGrouped{ID: spec.ID, Key: ck.Key, RekeyNonce: ck.Hdr.RekeyNonce, Shards: make([]CachedGroupedShard, len(spec.Shards))}
		for i, sh := range spec.Shards {
			g.Shards[i] = CachedGroupedShard{ShardID: sh.ID, Wrap: ck.Hdr.Shards[i].Wrap}
			for _, s := range ck.Solved {
				if s.ID == sh.ID && !seen[s.ID] {
					seen[s.ID] = true
					shards = append(shards, CachedShard{ID: s.ID, Sig: s.Sig, Hdr: ck.Hdr.Shards[i].Hdr.Clone(), Key: s.Key})
				}
			}
		}
		grouped = append(grouped, g)
	}
	if err := e.Install(nil, shards, grouped); err != nil {
		t.Fatal(err)
	}
}

// slotsOf lists a session's grouped header as the slots of a cache entry.
func slotsOf(g *GroupedHeader, ids ...string) []CachedGroupedShard {
	out := make([]CachedGroupedShard, len(ids))
	for i, id := range ids {
		out[i] = CachedGroupedShard{ShardID: id, Wrap: g.Shards[i].Wrap}
	}
	return out
}

// TestEngineInstallReplaysSessions: the entries sessions report, installed in
// order into an engine that never solved, make the next session with the
// same signatures a full cache hit, every grouped header assembled over the
// shard cache's sub-headers — and a grouped entry one slot of which holds
// another solve than the cache's is left out.
func TestEngineInstallReplaysSessions(t *testing.T) {
	e := NewEngine(2)
	shA1 := shardOf("acpA/0", "s1", engRows(0, 3, 2))
	shA2 := shardOf("acpA/1", "s2", engRows(50, 2, 2))
	shB := shardOf("acpB/0", "s3", engRows(100, 2, 2))
	shA2dirty := shardOf("acpA/1", "s2'", engRows(50, 1, 2))
	first, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB))
	if err != nil {
		t.Fatal(err)
	}
	third, err := e.RekeyAllGrouped(groupedSpecs(leased(t, e, shA1), shA2dirty, leased(t, e, shB)))
	if err != nil {
		t.Fatal(err)
	}
	if len(first["A|B"].Solved) != 3 || len(third["A"].Solved) != 1 || third["A"].Solved[0].ID != "acpA/1" {
		t.Fatalf("sessions report %d and %d solved shards, want 3 and the one dirty shard", len(first["A|B"].Solved), len(third["A"].Solved))
	}

	r := NewEngine(2)
	installSession(t, r, groupedSpecs(shA1, shA2, shB), first)
	installSession(t, r, groupedSpecs(shA1, shA2dirty, shB), third)
	out, err := r.RekeyAllGrouped(groupedSpecs(leased(t, r, shA1), leased(t, r, shA2dirty), leased(t, r, shB)))
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); s.Solves != 0 || s.Rebuilds != 0 {
		t.Fatalf("replayed engine: %d solves, %d rebuilds; want a full cache hit", s.Solves, s.Rebuilds)
	}
	for _, id := range []string{"A", "A|B"} {
		if out[id].Key != third[id].Key || !bytes.Equal(out[id].Hdr.RekeyNonce, third[id].Hdr.RekeyNonce) {
			t.Errorf("config %s: replayed key or nonce differs from the session's", id)
		}
	}
	for i := 0; i < 2; i++ {
		if out["A"].Hdr.Shards[i].Hdr != out["A|B"].Hdr.Shards[i].Hdr {
			t.Errorf("shard %d: the configurations hold two objects of one solve", i)
		}
	}
	deriveGrouped(t, shA2dirty.Rows[0], out["A|B"])

	// Another solve in a slot: shard acpA/1 is cached at s2' with the first
	// session's solve, while the grouped entry's wrap is made under the third's.
	x := NewEngine(2)
	if err := x.Install(nil, []CachedShard{
		{ID: "acpA/0", Sig: sigOf("s1"), Hdr: first["A"].Hdr.Shards[0].Hdr, Key: first["A|B"].Solved[0].Key},
		{ID: "acpA/1", Sig: sigOf("s2'"), Hdr: first["A"].Hdr.Shards[1].Hdr, Key: first["A|B"].Solved[1].Key},
	}, []CachedGrouped{{ID: "A", Key: third["A"].Key, RekeyNonce: third["A"].Hdr.RekeyNonce,
		Shards: slotsOf(third["A"].Hdr, "acpA/0", "acpA/1")}}); err != nil {
		t.Fatal(err)
	}
	got, err := x.RekeyAllGrouped([]GroupedConfigSpec{{ID: "A", Shards: []ShardSpec{leased(t, x, shA1), leased(t, x, shA2dirty)}}})
	if err != nil {
		t.Fatal(err)
	}
	if !got["A"].Rebuilt {
		t.Error("a grouped entry holding another solve than the cache's was installed")
	}

	for name, g := range map[string]CachedGrouped{
		"no ID":    {Shards: slotsOf(first["A"].Hdr, "acpA/0", "acpA/1")},
		"no slots": {ID: "A"},
	} {
		if err := x.Install(nil, nil, []CachedGrouped{g}); err == nil {
			t.Errorf("%s: malformed grouped entry installed", name)
		}
	}
	if err := x.Install([]CachedConfig{{ID: "A"}}, nil, nil); err == nil {
		t.Error("config entry without a header installed")
	}
}

// TestExportCacheNamesHeldSolves: an exported grouped entry names, slot by
// slot, the shard whose cached solve it holds, found by the sub-header's name
// whichever object holds it; an entry one slot of which holds a solve the
// shard cache no longer does — another configuration's session re-solved the
// shard — is not exported, and the restored engine reassembles it.
func TestExportCacheNamesHeldSolves(t *testing.T) {
	e := NewEngine(2)
	shA1 := shardOf("acpA/0", "s1", engRows(0, 3, 2))
	shA2 := shardOf("acpA/1", "s2", engRows(50, 2, 2))
	shB := shardOf("acpB/0", "s3", engRows(100, 2, 2))
	if _, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB)); err != nil {
		t.Fatal(err)
	}
	shA2dirty := shardOf("acpA/1", "s2'", engRows(50, 1, 2))
	if _, err := e.RekeyAllGrouped(groupedSpecs(leased(t, e, shA1), shA2dirty, leased(t, e, shB))[1:]); err != nil {
		t.Fatal(err)
	}
	for i := range e.shardCache {
		ent := e.shardCache[i]
		ent.hdr = ent.hdr.Clone()
		e.shardCache[i] = ent
	}
	cfgs, shards, grouped := e.ExportCache()
	if len(grouped) != 1 || grouped[0].ID != "A|B" {
		t.Fatalf("exported %d grouped entries, want A|B alone", len(grouped))
	}
	for i, id := range []string{"acpA/0", "acpA/1", "acpB/0"} {
		if grouped[0].Shards[i].ShardID != id {
			t.Errorf("slot %d names %q, want %q", i, grouped[0].Shards[i].ShardID, id)
		}
	}
	r := NewEngine(2)
	if err := r.RestoreCache(cfgs, shards, grouped); err != nil {
		t.Fatal(err)
	}
	out, err := r.RekeyAllGrouped(groupedSpecs(leased(t, r, shA1), leased(t, r, shA2dirty), leased(t, r, shB)))
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Stats(); !out["A"].Rebuilt || out["A|B"].Rebuilt || s.Solves != 0 {
		t.Errorf("restored engine: A rebuilt %v, A|B rebuilt %v, %d solves; want A reassembled over the cached solves alone", out["A"].Rebuilt, out["A|B"].Rebuilt, s.Solves)
	}
}
