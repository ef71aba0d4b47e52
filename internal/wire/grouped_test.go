package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
)

func buildGroupedHeader(t *testing.T) (*core.GroupedHeader, [][]core.CSS, ff64.Elem) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	rows := make([][]core.CSS, 7)
	for i := range rows {
		rows[i] = []core.CSS{ff64.New(rng.Uint64() | 1), ff64.New(rng.Uint64() | 1)}
	}
	g, key, err := core.BuildGrouped(rows, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g, rows, key
}

// groupedSnapshot is a snapshot of the one grouped configuration g.
func groupedSnapshot(g *core.GroupedHeader) *pubsub.Broadcast {
	ci := pubsub.ConfigInfo{Key: "g", Rev: 1, Grouped: g, ShardRevs: make([]uint64, len(g.Shards))}
	return snapshotOf(ci)
}

func TestGroupedHeaderRoundTrip(t *testing.T) {
	g, rows, key := buildGroupedHeader(t)
	dec := throughFrame(t, groupedSnapshot(g)).Configs[0].Grouped
	if len(dec.Shards) != len(g.Shards) || !bytes.Equal(dec.RekeyNonce, g.RekeyNonce) {
		t.Fatal("shape changed")
	}
	for i, sh := range g.Shards {
		if dec.Shards[i].Wrap != sh.Wrap || len(dec.Shards[i].Hdr.X) != len(sh.Hdr.X) {
			t.Fatalf("shard %d changed", i)
		}
	}
	// Every member still derives the configuration key through the decoded
	// copy; an outsider does not.
	for _, row := range rows {
		k, _, err := DeriveGrouped(row, dec, key)
		if err != nil || k != key {
			t.Fatalf("derivation through wire failed: %v", err)
		}
	}
	outsider := []core.CSS{ff64.New(12345), ff64.New(67890)}
	if _, _, err := DeriveGrouped(outsider, dec, key); err == nil {
		t.Error("outsider derived through wire copy")
	}
}

// DeriveGrouped verifies against a known key (test helper).
func DeriveGrouped(row []core.CSS, g *core.GroupedHeader, want ff64.Elem) (ff64.Elem, int, error) {
	return core.DeriveKeyGrouped(row, g, func(k ff64.Elem) bool { return k == want })
}

// groupedPrefix writes a snapshot frame up to the shard count of its one
// grouped configuration: what follows is the caller's.
func groupedPrefix(nonce []byte, shards uint32) *writer {
	w := &writer{}
	w.u8(VersionStream)
	w.u8(byte(FrameSnapshot))
	w.u32(0) // no nonce runs
	w.str("doc")
	w.u64(1)
	w.u64(1)
	w.u32(0) // no policies
	w.u32(1) // one configuration
	w.str(string(policy.ConfigOf("p")))
	w.u64(1)
	w.u8(2)
	w.bytes(nonce)
	w.u32(shards)
	return w
}

func TestGroupedHeaderRejectsCorruption(t *testing.T) {
	g, _, _ := buildGroupedHeader(t)
	enc := MarshalSnapshotFrame(groupedSnapshot(g))
	if _, err := UnmarshalFrame(enc[:len(enc)-2]); err == nil {
		t.Error("truncated accepted")
	}
	if _, err := UnmarshalFrame(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	refuse := func(what string, mutate func(*core.GroupedHeader)) {
		t.Helper()
		bad := *g
		bad.Shards = append([]core.GroupShard(nil), g.Shards...)
		mutate(&bad)
		if _, err := UnmarshalFrame(MarshalSnapshotFrame(groupedSnapshot(&bad))); err == nil {
			t.Errorf("%s accepted", what)
		}
	}
	refuse("bad rekey nonce length", func(g *core.GroupedHeader) { g.RekeyNonce = []byte("short") })
	refuse("sub-header of |X| = 0", func(g *core.GroupedHeader) { g.Shards[0].Hdr = &core.Header{} })
	refuse("unreduced wrap", func(g *core.GroupedHeader) { g.Shards[0].Wrap = ff64.Elem(^uint64(0)) })

	// Zero and absurd shard counts.
	for _, count := range []uint32{0, maxGroupShards + 1} {
		if _, err := UnmarshalFrame(groupedPrefix(g.RekeyNonce, count).out()); err != ErrOversize {
			t.Errorf("shard count %d: %v", count, err)
		}
	}

	// Fuzz: mutations must never panic.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		bad := append([]byte(nil), enc...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		}
		_, _ = UnmarshalFrame(bad)
	}
}

func TestGroupedHeaderBudgetClamp(t *testing.T) {
	// A crafted frame whose sub-headers claim far more X than it brings must
	// be refused before the decoder allocates for the claim: 64 shards, the
	// first claiming 2^25 X entries (256 MiB of vector) over 4 KiB of input.
	w := groupedPrefix(make([]byte, core.NonceSize), 64)
	w.u32(1 << 25)
	data := append(w.out(), make([]byte, 4096)...)
	if _, err := UnmarshalFrame(data); err == nil {
		t.Fatal("oversized grouped header accepted")
	}
}

// TestGroupedBudgetAccumulates checks the budget is charged cumulatively
// across shards, not per shard: charges each under the cap but summing past
// 64 MiB are rejected (crafting real multi-MiB sub-headers would dominate
// the test's runtime, so the accounting is exercised directly).
func TestGroupedBudgetAccumulates(t *testing.T) {
	r := newReader(nil)
	step := 8 << 20
	for i := 0; i < 8; i++ {
		if err := r.takeHeaderBudget(step); err != nil {
			t.Fatalf("charge %d of %d MiB rejected under budget", i, step>>20)
		}
	}
	if err := r.takeHeaderBudget(step); err == nil {
		t.Error("budget exceeded without rejection")
	}
}
