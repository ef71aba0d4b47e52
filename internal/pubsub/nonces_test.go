package pubsub

import (
	"math/rand"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/core/coretest"
	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
	"ppcd/internal/policy"
	"ppcd/internal/sym"
)

// expansions returns how many nonce seeds fn made the process expand.
func expansions(fn func()) uint64 {
	n := core.NonceExpansions()
	fn()
	return core.NonceExpansions() - n
}

// TestNoncesAreExpandedOnlyToHash runs 50 churn epochs through a publisher, a
// diff and a streaming member, and pins where a nonce seed is expanded and
// where nonces rest. The publisher expands once per session that solves
// anything; a diff and an apply never; the member once per vector it has to
// hash (kevMisses) and not at all on a cache hit; a cold scan once per
// distinct seed it meets. Nothing that holds headers — the publisher's diff
// bases and engine cache, live and restored from segments, the subscriber's
// current broadcast — holds a nonce.
func TestNoncesAreExpandedOnlyToHash(t *testing.T) {
	env := newDeltaEnv(t, 2, 4)
	rng := rand.New(rand.NewSource(23))
	var others []string
	for i := 0; i < 24; i++ {
		others = append(others, env.join(t, 2))
	}
	memberNym := env.join(t, 2) // never revoked
	member := env.subscriber(t, memberNym)
	prev, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := member.ApplySnapshot(prev); err != nil {
		t.Fatal(err)
	}
	if _, err := member.DecryptCurrent("doc"); err != nil {
		t.Fatal(err)
	}

	sessions, missed := 0, uint64(0)
	for epoch := 0; epoch < 50; epoch++ {
		if epoch%5 != 4 { // every fifth epoch republishes an unchanged table
			i := rng.Intn(len(others))
			if err := env.pub.RevokeSubscription(others[i]); err != nil {
				t.Fatal(err)
			}
			others[i] = env.join(t, 2)
		}
		solves := env.pub.Stats().Solves
		var cur *Broadcast
		atPub := expansions(func() { cur, err = env.pub.Publish(env.doc) })
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if env.pub.Stats().Solves > solves {
			want = 1
			sessions++
		}
		if atPub != want {
			t.Fatalf("epoch %d: the publisher expanded %d seeds for %d solves, want one per session", epoch, atPub, env.pub.Stats().Solves-solves)
		}
		if n := expansions(func() {
			var d *BroadcastDelta
			if d, err = Diff(prev, cur); err == nil {
				err = member.ApplyDelta(d)
			}
		}); n != 0 || err != nil {
			t.Fatalf("epoch %d: diff and apply expanded %d seeds (%v)", epoch, n, err)
		}
		misses := member.kevMisses
		var got map[string][]byte
		n := expansions(func() { got, err = member.DecryptCurrent("doc") })
		if err != nil || len(got) != 2 {
			t.Fatalf("epoch %d: member decrypted %d subdocuments: %v", epoch, len(got), err)
		}
		if n != member.kevMisses-misses {
			t.Fatalf("epoch %d: the member expanded %d seeds for %d vectors hashed", epoch, n, member.kevMisses-misses)
		}
		missed += n
		if n := expansions(func() { _, err = member.DecryptCurrent("doc") }); n != 0 || err != nil {
			t.Fatalf("epoch %d: a decrypt served from the KEV cache expanded %d seeds (%v)", epoch, n, err)
		}
		prev = cur
	}
	t.Logf("50 epochs: %d sessions, the member hashed %d vectors", sessions, missed)
	if sessions != 40 || missed == 0 || missed > 2*uint64(sessions) {
		t.Errorf("50 epochs: %d sessions, the member hashed %d vectors; want 40 and a few", sessions, missed)
	}

	// A cold non-member scans every shard: one expansion per vector it hashes,
	// one vector per distinct seed and row.
	cold, err := NewSubscriber("pn-outsider")
	if err != nil {
		t.Fatal(err)
	}
	cold.css["attr0 >= 1"], cold.css["attr1 >= 1"] = 5, 6
	seeds := make(map[string]bool)
	for _, ci := range prev.Configs {
		for _, sh := range ci.Grouped.Shards {
			seeds[string(sh.Hdr.Seed)] = true
		}
	}
	n := expansions(func() { _, err = cold.Decrypt(prev) })
	t.Logf("cold scan: %d distinct seeds, %d expansions, %d vectors hashed", len(seeds), n, cold.kevMisses)
	if err != nil || n != cold.kevMisses || n < uint64(len(seeds)) || n > 2*uint64(len(seeds)) {
		t.Errorf("cold scan over %d distinct seeds expanded %d for %d vectors hashed (%v)", len(seeds), n, cold.kevMisses, err)
	}

	// Nothing at rest holds a nonce: live…
	cfgs, shards, grouped := env.pub.keys.engine.ExportCache()
	for what, v := range map[string]any{
		"publisher's diff bases":     env.pub.LastBroadcasts(),
		"engine cache":               []any{cfgs, shards, grouped},
		"member's current broadcast": member.stream,
		"cold subscriber":            cold,
	} {
		if n := coretest.ListedNonces(v); n != 0 {
			t.Errorf("%s: %d nonces at rest", what, n)
		}
	}
	// …and restored from segments, which expands nothing either.
	meta, table, cache := segmentsOf(t, env.pub, 8)
	restored := newDeltaEnv(t, 2, 4)
	if n := expansions(func() { _, err = restored.pub.ImportStateSegments(8, meta, table, cache, 2) }); n != 0 || err != nil {
		t.Fatalf("restoring from segments expanded %d seeds (%v)", n, err)
	}
	cfgs, shards, grouped = restored.pub.keys.engine.ExportCache()
	if len(shards) == 0 || coretest.ListedNonces([]any{cfgs, shards, grouped, restored.pub.LastBroadcasts()}) != 0 {
		t.Errorf("restored engine cache of %d shards and diff bases hold nonces", len(shards))
	}
}

// BenchmarkColdScan is the one cost that moved with the nonces: a cold
// subscriber that belongs to no shard scans a grouped header of 294 shards of
// 128 rows, every shard solved in a session of its own (churn-stream late in
// a run), and for each shard expands the seed — an AES-256 key schedule and
// 2 kB of CTR keystream, into pooled scratch — before it hashes its row 128
// times. A decoder used to pay that expansion for every run of every frame;
// now a scan pays it, on a miss. Reported per shard.
func BenchmarkColdScan(b *testing.B) {
	const shards, n = 294, 128
	var key [sym.KeySize]byte
	ct, err := sym.Encrypt(key, []byte("subdocument"))
	if err != nil {
		b.Fatal(err)
	}
	cfg := policy.ConfigOf("acp0")
	g := &core.GroupedHeader{RekeyNonce: make([]byte, core.NonceSize)}
	for i := 0; i < shards; i++ {
		seed := make([]byte, core.SeedSize)
		seed[0], seed[1] = byte(i), byte(i>>8)
		x := make(linalg.Vector, n+1)
		for j := range x {
			x[j] = ff64.Elem(uint64(i*n + j + 1))
		}
		g.Shards = append(g.Shards, core.GroupShard{Hdr: &core.Header{X: x, Seed: seed}, Wrap: ff64.Elem(uint64(i) + 1)})
	}
	bc := &Broadcast{
		DocName:  "doc",
		Policies: []PolicyInfo{{ID: "acp0", CondIDs: []string{"attr0 >= 1"}}},
		Configs:  []ConfigInfo{{Key: cfg, Grouped: g}},
		Items:    []Item{{Subdoc: "sd0", Config: cfg, Ciphertext: ct}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sub, err := NewSubscriber("pn-outsider")
		if err != nil {
			b.Fatal(err)
		}
		sub.css["attr0 >= 1"] = 5
		if got, err := sub.Decrypt(bc); err != nil || len(got) != 0 || sub.kevMisses != shards {
			b.Fatalf("cold scan: %d subdocuments, %d vectors hashed, %v", len(got), sub.kevMisses, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*shards), "ns/shard")
}
