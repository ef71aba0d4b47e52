package core

import (
	"bytes"
	"errors"
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
	return ShardSpec{ID: id, Sig: sig, N: len(rows), Rows: rows}
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

	// Steady state: identical signatures → full cache hit, same headers.
	second, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB))
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
	third, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2dirty, shB))
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

	// A vanished shard (all members left) changes the configuration
	// signature without any solve.
	fourth, err := e.RekeyAllGrouped([]GroupedConfigSpec{{ID: "A", Shards: []ShardSpec{shA1}}})
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
// is served from its ID, signature and row count alone — across a steady
// state, a reassembly and a neighbour's re-solve — and a shard it must solve
// without (all of) its rows fails the session with ErrShardRows before any
// solve runs.
func TestEngineGroupedRowsOnlyWhenUnsolved(t *testing.T) {
	e := NewEngine(2)
	shA1 := shardOf("acpA/0", "s1", engRows(0, 3, 2))
	shA2 := shardOf("acpA/1", "s2", engRows(50, 2, 2))
	shB := shardOf("acpB/0", "s3", engRows(100, 2, 2))
	bare := func(sh ShardSpec) ShardSpec { return ShardSpec{ID: sh.ID, Sig: sh.Sig, N: sh.N} }

	if e.HasShard(shA1.ID, shA1.Sig) {
		t.Fatal("a fresh engine reports a solve")
	}
	first, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2, shB))
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasShard(shA1.ID, shA1.Sig) || e.HasShard(shA1.ID, "s1'") || e.HasShard("acpC/0", "s1") {
		t.Fatal("HasShard does not answer for exactly the solved (ID, Sig)")
	}
	base := e.Stats().Solves

	// Steady state, then a forced reassembly, without a single row.
	e.Forget("A")
	second, err := e.RekeyAllGrouped(groupedSpecs(bare(shA1), bare(shA2), bare(shB)))
	if err != nil {
		t.Fatal(err)
	}
	if !second["A"].Rebuilt || second["A|B"].Rebuilt || second["A"].Hdr.Shards[1].Hdr != first["A"].Hdr.Shards[1].Hdr {
		t.Error("rowless specs: want A reassembled over its cached shards and A|B a cache hit")
	}
	// One dirty shard brings its rows; its clean neighbours need none.
	shA2dirty := shardOf("acpA/1", "s2'", engRows(50, 1, 2))
	third, err := e.RekeyAllGrouped(groupedSpecs(bare(shA1), shA2dirty, bare(shB)))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != base+1 {
		t.Errorf("%d solves for one dirty shard among rowless clean ones, want 1", got-base)
	}
	deriveGrouped(t, shA1.Rows[0], third["A"])
	deriveGrouped(t, shA2dirty.Rows[0], third["A|B"])

	// Must solve, cannot: a changed signature without rows, rows that are not
	// the N the signature digests, and a cache that was reset in between.
	short := shardOf("acpB/0", "s3'", shB.Rows[:1])
	short.N = 2
	for name, specs := range map[string][]GroupedConfigSpec{
		"dirty":    groupedSpecs(bare(shA1), bare(shardOf("acpA/1", "s2''", shA2.Rows)), bare(shB)),
		"mismatch": groupedSpecs(bare(shA1), shA2dirty, short),
	} {
		if _, err := e.RekeyAllGrouped(specs); !errors.Is(err, ErrShardRows) {
			t.Errorf("%s shard without its rows: %v, want ErrShardRows", name, err)
		}
	}
	e.Reset()
	if _, err := e.RekeyAllGrouped(groupedSpecs(bare(shA1), shA2dirty, bare(shB))); !errors.Is(err, ErrShardRows) {
		t.Errorf("rowless specs after a Reset: %v, want ErrShardRows", err)
	}
	if got := e.Stats().Solves; got != base+1 {
		t.Errorf("refused sessions ran %d solves", got-base-1)
	}
}

// decoded copies a grouped header the way a decoder hands it over: equal
// content, no object shared with the engine that built it.
func decoded(g *GroupedHeader) *GroupedHeader {
	out := &GroupedHeader{RekeyNonce: g.RekeyNonce, Shards: make([]GroupShard, len(g.Shards))}
	for i, sh := range g.Shards {
		out.Shards[i] = GroupShard{Hdr: sh.Hdr.Clone(), Wrap: sh.Wrap}
	}
	return out
}

// installSession installs what one session reported into e, from decoded
// copies of its headers: a solved shard once, with the sub-header of the first
// slot naming it.
func installSession(t *testing.T, e *Engine, specs []GroupedConfigSpec, out map[string]GroupedConfigKeys) {
	t.Helper()
	var grouped []CachedGrouped
	var shards []CachedShard
	seen := make(map[string]bool)
	for _, spec := range specs {
		ck := out[spec.ID]
		hdr := decoded(ck.Hdr)
		g := CachedGrouped{ID: spec.ID, Key: ck.Key, Hdr: hdr, Shards: make([]CachedGroupedShard, len(spec.Shards))}
		for i, sh := range spec.Shards {
			g.Shards[i].ShardID = sh.ID
			for _, s := range ck.Solved {
				if s.ID == sh.ID && !seen[s.ID] {
					seen[s.ID] = true
					shards = append(shards, CachedShard{ID: s.ID, Sig: s.Sig, Hdr: hdr.Shards[i].Hdr, Key: s.Key})
				}
			}
		}
		grouped = append(grouped, g)
	}
	if err := e.Install(nil, shards, grouped); err != nil {
		t.Fatal(err)
	}
}

// TestEngineInstallReplaysSessions: the entries sessions report, installed in
// order into an engine that never solved, make the next session with the
// same signatures a full cache hit on the installed objects — a re-solved
// shard's sub-header shared between the configurations naming it, a clean
// one's re-pointed at the cache's — and a grouped entry one slot of which
// holds another solve than the cache's is left out.
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
	third, err := e.RekeyAllGrouped(groupedSpecs(shA1, shA2dirty, shB))
	if err != nil {
		t.Fatal(err)
	}
	if len(first["A|B"].Solved) != 3 || len(third["A"].Solved) != 1 || third["A"].Solved[0].ID != "acpA/1" {
		t.Fatalf("sessions report %d and %d solved shards, want 3 and the one dirty shard", len(first["A|B"].Solved), len(third["A"].Solved))
	}

	r := NewEngine(2)
	installSession(t, r, groupedSpecs(shA1, shA2, shB), first)
	installSession(t, r, groupedSpecs(shA1, shA2dirty, shB), third)
	bare := func(sh ShardSpec) ShardSpec { return ShardSpec{ID: sh.ID, Sig: sh.Sig, N: sh.N} }
	out, err := r.RekeyAllGrouped(groupedSpecs(bare(shA1), bare(shA2dirty), bare(shB)))
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
	// session's sub-header, while the grouped entry carries the third's.
	x := NewEngine(2)
	if err := x.Install(nil, []CachedShard{
		{ID: "acpA/0", Sig: "s1", Hdr: first["A"].Hdr.Shards[0].Hdr, Key: first["A|B"].Solved[0].Key},
		{ID: "acpA/1", Sig: "s2'", Hdr: first["A"].Hdr.Shards[1].Hdr, Key: third["A"].Solved[0].Key},
	}, []CachedGrouped{{ID: "A", Key: third["A"].Key, Hdr: decoded(third["A"].Hdr),
		Shards: []CachedGroupedShard{{ShardID: "acpA/0"}, {ShardID: "acpA/1"}}}}); err != nil {
		t.Fatal(err)
	}
	got, err := x.RekeyAllGrouped([]GroupedConfigSpec{{ID: "A", Shards: []ShardSpec{bare(shA1), bare(shA2dirty)}}})
	if err != nil {
		t.Fatal(err)
	}
	if !got["A"].Rebuilt {
		t.Error("a grouped entry holding another solve than the cache's was installed")
	}

	for name, g := range map[string]CachedGrouped{
		"no ID":        {Hdr: decoded(first["A"].Hdr), Shards: make([]CachedGroupedShard, 2)},
		"no header":    {ID: "A", Shards: make([]CachedGroupedShard, 2)},
		"slots differ": {ID: "A", Hdr: decoded(first["A"].Hdr), Shards: make([]CachedGroupedShard, 1)},
	} {
		if err := x.Install(nil, nil, []CachedGrouped{g}); err == nil {
			t.Errorf("%s: malformed grouped entry installed", name)
		}
	}
	if err := x.Install([]CachedConfig{{ID: "A"}}, nil, nil); err == nil {
		t.Error("config entry without a header installed")
	}
}
