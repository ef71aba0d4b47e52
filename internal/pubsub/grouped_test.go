package pubsub

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/document"
	"ppcd/internal/linalg"
	"ppcd/internal/policy"
)

// importTable loads a synthetic CSS table through the replication path: one
// register event per row, in pseudonym order (no OCBE exchanges).
func importTable(t *testing.T, pub *Publisher, table map[string]map[string]uint64) {
	t.Helper()
	for _, nym := range sortedKeys(table) {
		cells := make(map[string]core.CSS, len(table[nym]))
		for cond, css := range table[nym] {
			cells[cond] = core.CSS(css)
		}
		if err := pub.ApplyStateEvent(StateEvent{Kind: StateEventRegister, Nym: nym, Cells: cells}); err != nil {
			t.Fatal(err)
		}
	}
}

// workload is the shape of benchutil.Workload (which loads through this
// package, so this package's tests cannot import it): `policies`
// single-condition ACPs "attrI >= 1" over a document of one subdocument
// each, and `subs` rows "pn-I", the first `partial` of which hold attr0
// alone and the rest every condition.
func workload(t *testing.T, subs, policies, partial, subdocBytes int) ([]*policy.ACP, *document.Document, map[string]map[string]uint64) {
	t.Helper()
	var acps []*policy.ACP
	var subdocs []document.Subdocument
	for i := 0; i < policies; i++ {
		acp, err := policy.New(fmt.Sprintf("acp%d", i), fmt.Sprintf("attr%d >= 1", i), "doc", fmt.Sprintf("sd%d", i))
		if err != nil {
			t.Fatal(err)
		}
		acps = append(acps, acp)
		subdocs = append(subdocs, document.Subdocument{Name: fmt.Sprintf("sd%d", i), Content: make([]byte, subdocBytes)})
	}
	doc, err := document.New("doc", subdocs...)
	if err != nil {
		t.Fatal(err)
	}
	table := make(map[string]map[string]uint64, subs)
	for i := 0; i < subs; i++ {
		width := policies
		if i < partial {
			width = 1
		}
		row := make(map[string]uint64, width)
		for j := 0; j < width; j++ {
			row[fmt.Sprintf("attr%d >= 1", j)] = uint64(1000*i + j + 1)
		}
		table[fmt.Sprintf("pn-%d", i)] = row
	}
	return acps, doc, table
}

// subFromRow builds a subscriber holding exactly the given CSS cells,
// matching one table row.
func subFromRow(t *testing.T, nym string, row map[string]uint64) *Subscriber {
	t.Helper()
	s, err := NewSubscriber(nym)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(struct {
		Version int               `json:"version"`
		Nym     string            `json:"nym"`
		CSS     map[string]uint64 `json:"css"`
	}{Version: 1, Nym: nym, CSS: row})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ImportCSS(payload); err != nil {
		t.Fatal(err)
	}
	return s
}

// equivFixture builds the two-policy document used by the equivalence and
// dominance tests: acpA (two conditions) covers sd1+sd2, acpB covers
// sd2+sd3, so sd2's configuration is {acpA, acpB}.
func equivFixture(t *testing.T) ([]*policy.ACP, *document.Document) {
	t.Helper()
	acpA, err := policy.New("acpA", "a >= 1 && b >= 1", "doc", "sd1", "sd2")
	if err != nil {
		t.Fatal(err)
	}
	acpB, err := policy.New("acpB", "c >= 1", "doc", "sd2", "sd3")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := document.New("doc",
		document.Subdocument{Name: "sd1", Content: []byte("one")},
		document.Subdocument{Name: "sd2", Content: []byte("two")},
		document.Subdocument{Name: "sd3", Content: []byte("three")},
	)
	if err != nil {
		t.Fatal(err)
	}
	return []*policy.ACP{acpA, acpB}, doc
}

func TestGroupedMatchesUngroupedAccess(t *testing.T) {
	// Property: for random membership tables, a grouped publisher grants
	// every subscriber exactly the same subdocuments (with identical
	// plaintexts) as an ungrouped one, and non-members get nothing — the
	// §VIII-C refactor must not move the access boundary.
	params, mgr := testEnv(t)
	acps, doc := equivFixture(t)
	conds := []string{"a >= 1", "b >= 1", "c >= 1"}

	for seed := int64(0); seed < 4; seed++ {
		for _, groupSize := range []int{1, 2, 3, 100} {
			rng := rand.New(rand.NewSource(seed))
			table := make(map[string]map[string]uint64)
			for i := 0; i < 10; i++ {
				row := make(map[string]uint64)
				for _, c := range conds {
					if rng.Intn(2) == 1 {
						row[c] = rng.Uint64()%1000003 + 1
					}
				}
				if len(row) > 0 {
					table[fmt.Sprintf("pn-%d", i)] = row
				}
			}

			plain, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8})
			if err != nil {
				t.Fatal(err)
			}
			grouped, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8, GroupSize: groupSize})
			if err != nil {
				t.Fatal(err)
			}
			importTable(t, plain, table)
			importTable(t, grouped, table)
			bPlain, err := plain.Publish(doc)
			if err != nil {
				t.Fatal(err)
			}
			bGrouped, err := grouped.Publish(doc)
			if err != nil {
				t.Fatalf("seed %d g=%d: %v", seed, groupSize, err)
			}

			for nym, row := range table {
				gotPlain, err := subFromRow(t, nym, row).Decrypt(bPlain)
				if err != nil {
					t.Fatal(err)
				}
				gotGrouped, err := subFromRow(t, nym, row).Decrypt(bGrouped)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotPlain) != len(gotGrouped) {
					t.Fatalf("seed %d g=%d %s: plain decrypts %d, grouped %d",
						seed, groupSize, nym, len(gotPlain), len(gotGrouped))
				}
				for name, pt := range gotPlain {
					if !bytes.Equal(gotGrouped[name], pt) {
						t.Fatalf("seed %d g=%d %s: %s differs across modes", seed, groupSize, nym, name)
					}
				}
				// Cross-check against the policy semantics.
				hasA := row["a >= 1"] != 0 && row["b >= 1"] != 0
				hasB := row["c >= 1"] != 0
				want := 0
				if hasA {
					want++ // sd1
				}
				if hasA || hasB {
					want++ // sd2
				}
				if hasB {
					want++ // sd3
				}
				if len(gotGrouped) != want {
					t.Fatalf("seed %d g=%d %s: decrypted %d subdocs, policy says %d",
						seed, groupSize, nym, len(gotGrouped), want)
				}
			}
			// A non-member derives nothing from either broadcast.
			outsider := subFromRow(t, "pn-out", map[string]uint64{"a >= 1": 999983})
			if got, _ := outsider.Decrypt(bGrouped); len(got) != 0 {
				t.Fatalf("seed %d g=%d: outsider decrypted %d subdocs", seed, groupSize, len(got))
			}
		}
	}
}

func TestGroupedChurnSolvesExactlyOneShard(t *testing.T) {
	// Acceptance criterion: a single-leave churn publish re-solves exactly
	// one shard (one small ACV), not whole configurations. The benchutil
	// workload's first half of pseudonyms hold only attr0, so revoking one
	// touches one policy — and with grouping, one group of that policy.
	params, mgr := testEnv(t)
	acps, doc, table := workload(t, 12, 3, 6, 64)
	pub, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8, GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	importTable(t, pub, table)
	if _, err := pub.Publish(doc); err != nil {
		t.Fatal(err)
	}
	base := pub.Stats()
	// acp0 has 12 rows in 4 groups of 3; acp1 and acp2 have 6 rows in 2
	// groups each: 8 shard solves for the settling publish.
	if base.Solves != 8 {
		t.Fatalf("settling publish solved %d shards, want 8", base.Solves)
	}

	// Steady state: zero solves, zero rebuilds.
	b1, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	if s := pub.Stats(); s.Solves != base.Solves || s.Rebuilds != base.Rebuilds {
		t.Fatalf("steady-state publish solved %d shards, rebuilt %d configs",
			s.Solves-base.Solves, s.Rebuilds-base.Rebuilds)
	}

	// The leaver holds only attr0: exactly one of acp0's four groups loses a
	// row, so the churn publish must re-solve exactly ONE shard and rebuild
	// exactly ONE configuration.
	leaver := subFromRow(t, "pn-0", table["pn-0"])
	stayer := subFromRow(t, "pn-1", table["pn-1"])
	if got, _ := leaver.Decrypt(b1); len(got) != 1 {
		t.Fatalf("leaver decrypted %d subdocs before revocation", len(got))
	}

	if err := pub.RevokeSubscription("pn-0"); err != nil {
		t.Fatal(err)
	}
	b2, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := pub.Stats()
	if got := s.Solves - base.Solves; got != 1 {
		t.Errorf("single-leave churn publish solved %d shards, want 1", got)
	}
	if got := s.Rebuilds - base.Rebuilds; got != 1 {
		t.Errorf("single-leave churn publish rebuilt %d configurations, want 1", got)
	}

	// Forward secrecy: the leaver cannot decrypt the post-revocation
	// broadcast; a remaining member of the same policy still can.
	if got, _ := leaver.Decrypt(b2); len(got) != 0 {
		t.Errorf("revoked subscriber decrypted %d subdocs", len(got))
	}
	if got, _ := stayer.Decrypt(b2); len(got) != 1 {
		t.Errorf("remaining subscriber decrypted %d subdocs, want 1", len(got))
	}
}

func TestGroupedSubscriberKEVCacheAndHint(t *testing.T) {
	// §VIII-D receiver half: steady-state republish re-hashes nothing (the
	// KEV cache hits on every shard), and after churn in a DIFFERENT group
	// the subscriber's own shard is clean — hint plus cache make the whole
	// derivation hash-free.
	params, mgr := testEnv(t)
	acps, doc, table := workload(t, 6, 1, 6, 64)
	pub, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8, GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	importTable(t, pub, table)
	// Sticky assignment fills groups in sorted-nym order: pn-0,pn-1 → group
	// 0, pn-2,pn-3 → group 1, pn-4,pn-5 → group 2.
	sub := subFromRow(t, "pn-3", table["pn-3"])

	b1, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sub.Decrypt(b1); len(got) != 1 {
		t.Fatalf("first decrypt got %d subdocs", len(got))
	}
	missesAfterFirst := sub.kevMisses
	if missesAfterFirst == 0 {
		t.Fatal("first decrypt hashed nothing")
	}
	if hint, ok := sub.grpHint[policy.ConfigOf("acp0")]; !ok || hint != 1 {
		t.Fatalf("group hint = %d (ok=%v), want 1", hint, ok)
	}

	// Steady-state republish: same headers, zero fresh hashings.
	b2, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sub.Decrypt(b2); len(got) != 1 {
		t.Fatal("steady-state decrypt failed")
	}
	if sub.kevMisses != missesAfterFirst {
		t.Errorf("steady-state decrypt hashed %d fresh KEVs", sub.kevMisses-missesAfterFirst)
	}

	// Churn in group 0 (pn-0 leaves): pn-3's group 1 keeps its sub-header,
	// so the hint hits and the cached KEV derives without any hashing.
	if err := pub.RevokeSubscription("pn-0"); err != nil {
		t.Fatal(err)
	}
	b3, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sub.Decrypt(b3); len(got) != 1 {
		t.Fatal("post-churn decrypt failed")
	}
	if sub.kevMisses != missesAfterFirst {
		t.Errorf("post-churn decrypt hashed %d fresh KEVs, want 0 (clean shard)", sub.kevMisses-missesAfterFirst)
	}
}

func TestColdGroupedScanHashesOncePerRun(t *testing.T) {
	// The shards of one session hold prefixes of one nonce run, and a KEV
	// over a prefix is a prefix of the KEV over the run: a cold subscriber
	// scanning for its shard hashes its row once, not once per shard —
	// whether the headers share the run's memory (the publisher's, or one
	// decoded stream frame's) or only the seed that names it.
	params, mgr := testEnv(t)
	acps, doc, table := workload(t, 7, 1, 7, 64)
	pub, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8, GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	importTable(t, pub, table)
	b, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	g := b.Configs[0].Grouped
	if len(g.Shards) != 4 || g.Shards[3].Hdr.N() >= g.Shards[0].Hdr.N() {
		t.Fatalf("want four shards, the last one shorter; got %d", len(g.Shards))
	}
	// pn-6 sits alone in the last shard: the scan tries every shard before.
	sub := subFromRow(t, "pn-6", table["pn-6"])
	if got, _ := sub.Decrypt(b); len(got) != 1 {
		t.Fatalf("decrypt got %d subdocs", len(got))
	}
	if sub.kevMisses != 1 {
		t.Errorf("cold scan over four same-session shards hashed %d KEVs, want 1", sub.kevMisses)
	}

	// The same broadcast with every header cloned apart: one seed, no shared
	// memory. Still one hashing for a cold subscriber.
	apart := *b
	apart.Configs = append([]ConfigInfo(nil), b.Configs...)
	ag := *g
	ag.Shards = append([]core.GroupShard(nil), g.Shards...)
	for i := range ag.Shards {
		ag.Shards[i].Hdr = ag.Shards[i].Hdr.Clone()
	}
	apart.Configs[0].Grouped = &ag
	cold := subFromRow(t, "pn-6", table["pn-6"])
	if got, _ := cold.Decrypt(&apart); len(got) != 1 {
		t.Fatalf("decrypt of cloned headers got %d subdocs", len(got))
	}
	if cold.kevMisses != 1 {
		t.Errorf("cold scan over cloned same-session shards hashed %d KEVs, want 1", cold.kevMisses)
	}

	// A header of another seed — one bit from the run's — is hashed, not served
	// the run's vector.
	row, _ := sub.rowFor(b.Policies[0])
	forged := g.Shards[0].Hdr.Clone()
	forged.Seed[0] ^= 1
	kev, err := sub.cachedKEV(row, forged)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := core.KEV(row, forged)
	if honest, _ := core.KEV(row, g.Shards[0].Hdr); sub.kevMisses != 2 || !reflect.DeepEqual(kev, want) || reflect.DeepEqual(kev, honest) {
		t.Errorf("a header of a forged seed was served from the cache (misses %d)", sub.kevMisses)
	}

	// A longer header of a cached run replaces the run's vector; the shorter
	// ones are then served from it.
	seed := g.Shards[0].Hdr.Seed
	long := &core.Header{X: make(linalg.Vector, 10), Seed: seed}
	if kev, err = sub.cachedKEV(row, long); err != nil || len(kev) != 10 || sub.kevMisses != 3 {
		t.Fatalf("longer header of a cached run: %d entries, %d misses, %v", len(kev), sub.kevMisses, err)
	}
	if want, _ = core.KEV(row, g.Shards[3].Hdr); sub.kevMisses != 3 {
		t.Fatal("core.KEV counted as a miss")
	}
	if kev, _ = sub.cachedKEV(row, g.Shards[3].Hdr); sub.kevMisses != 3 || !reflect.DeepEqual(kev, want) {
		t.Errorf("shorter header after the longer one: misses %d", sub.kevMisses)
	}
}

func TestKEVCacheBoundedByBytes(t *testing.T) {
	// Every rekey session brings a fresh run and so a fresh vector: the cache
	// is bounded by the bytes it holds — the vectors, not the runs they were
	// hashed against — not by a count of entries whose size grows with N.
	sub, err := NewSubscriber("pn-0")
	if err != nil {
		t.Fatal(err)
	}
	row := []core.CSS{3, 5}
	const n = 512
	for session := 0; session < 600; session++ {
		seed := make([]byte, core.SeedSize)
		seed[0], seed[1] = byte(session), byte(session>>8)
		hdr := &core.Header{X: make(linalg.Vector, n+1), Seed: seed}
		if _, err := sub.cachedKEV(row, hdr); err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, e := range sub.kev {
			held += 8 * len(e.vec)
		}
		if held != sub.kevBytes || held > maxKEVCacheBytes {
			t.Fatalf("session %d: cache holds %d bytes, accounts for %d, bound %d", session, held, sub.kevBytes, maxKEVCacheBytes)
		}
	}
	if sub.kevMisses != 600 || len(sub.kev) == 0 || len(sub.kev) >= 600 {
		t.Fatalf("misses %d, entries %d", sub.kevMisses, len(sub.kev))
	}
}

func TestKEVCacheHoldsWhatIsInUse(t *testing.T) {
	// Every rekey session brings a fresh run. A subscriber following a
	// document keeps the vectors its last Decrypt used and drops those of the
	// sessions rekeyed since, so what it holds does not grow with the epochs
	// it has seen (§V-C: one N×N header per configuration, a miss per epoch);
	// another document's vectors are not this one's to drop.
	params, mgr := testEnv(t)
	acps, doc, table := workload(t, 7, 2, 0, 64)
	pub, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8})
	if err != nil {
		t.Fatal(err)
	}
	importTable(t, pub, table)
	sub := subFromRow(t, "pn-3", table["pn-3"])
	decrypt := func(b *Broadcast) {
		t.Helper()
		if got, err := sub.Decrypt(b); err != nil || len(got) != 2 {
			t.Fatalf("epoch %d of %q: %d subdocs, %v", b.Epoch, b.DocName, len(got), err)
		}
		held := 0
		for _, e := range sub.kev {
			held += 8 * len(e.vec)
		}
		if held != sub.kevBytes {
			t.Fatalf("epoch %d: cache holds %d bytes, accounts for %d", b.Epoch, held, sub.kevBytes)
		}
	}
	b, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	if b.Configs[0].Header == nil {
		t.Fatal("want ungrouped headers")
	}
	other := *b
	other.DocName = "other"
	decrypt(&other)
	perDoc := len(sub.kev)
	for epoch := 0; epoch < 20; epoch++ {
		pub.ResetRekeyCache()
		if b, err = pub.Publish(doc); err != nil {
			t.Fatal(err)
		}
		decrypt(b)
		if len(sub.kev) != 2*perDoc {
			t.Fatalf("after %d rekeys the cache holds %d vectors, want %d per document", epoch+1, len(sub.kev), perDoc)
		}
	}
	misses := sub.kevMisses
	decrypt(&other)
	decrypt(b)
	if sub.kevMisses != misses {
		t.Errorf("vectors still in use were dropped: %d fresh hashings", sub.kevMisses-misses)
	}
}

func TestDominanceReusesSolve(t *testing.T) {
	// §VIII-B: with nobody qualifying for acpB, sd2's configuration
	// {acpA, acpB} has the same subscriber rows as {acpA}, which dominates
	// it — one solve serves both, counted in Stats().DominanceSkips, and an
	// acpA subscriber reads both subdocuments.
	params, mgr := testEnv(t)
	acps, doc := equivFixture(t)
	table := map[string]map[string]uint64{
		"pn-a1": {"a >= 1": 11, "b >= 1": 12},
		"pn-a2": {"a >= 1": 21, "b >= 1": 22},
	}
	for _, groupSize := range []int{0, 1} {
		pub, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8, GroupSize: groupSize})
		if err != nil {
			t.Fatal(err)
		}
		importTable(t, pub, table)
		b, err := pub.Publish(doc)
		if err != nil {
			t.Fatal(err)
		}
		s := pub.Stats()
		if s.DominanceSkips != 1 {
			t.Errorf("groupSize=%d: %d dominance skips, want 1", groupSize, s.DominanceSkips)
		}
		wantSolves := uint64(1) // ungrouped: one config; grouped: acpA's single group of 2
		if groupSize == 1 {
			wantSolves = 2 // two single-member groups
		}
		if s.Solves != wantSolves {
			t.Errorf("groupSize=%d: %d solves, want %d", groupSize, s.Solves, wantSolves)
		}
		got, err := subFromRow(t, "pn-a1", table["pn-a1"]).Decrypt(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got["sd1"] == nil || got["sd2"] == nil {
			t.Errorf("groupSize=%d: acpA subscriber decrypted %v, want sd1+sd2", groupSize, len(got))
		}
		// The aliased configuration reuses the representative's build.
		var sd1, sd2 ConfigInfo
		for _, ci := range b.Configs {
			switch ci.Key {
			case policy.ConfigOf("acpA"):
				sd1 = ci
			case policy.ConfigOf("acpA", "acpB"):
				sd2 = ci
			}
		}
		if groupSize == 0 && (sd1.Header == nil || sd1.Header != sd2.Header) {
			t.Errorf("groupSize=0: dominated configuration did not reuse the representative header")
		}
		if groupSize == 1 && (sd1.Grouped == nil || sd1.Grouped != sd2.Grouped) {
			t.Errorf("groupSize=1: dominated configuration did not reuse the representative grouped header")
		}
	}
}

func TestConcurrentRegisterDuringGroupedPublish(t *testing.T) {
	// Registrations racing grouped publishes must neither corrupt the
	// sticky assignment state nor deadlock; run with -race in CI.
	params, mgr := testEnv(t)
	acps, doc, table := workload(t, 8, 2, 4, 64)
	pub, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8, GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	importTable(t, pub, table)

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	subs := make([]*Subscriber, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			nym := fmt.Sprintf("pn-race-%d", w)
			sub, err := NewSubscriber(nym)
			if err != nil {
				errs <- err
				return
			}
			tok, sec, err := mgr.IssueString(nym, "attr0", "5")
			if err != nil {
				errs <- err
				return
			}
			if err := sub.AddToken(tok, sec); err != nil {
				errs <- err
				return
			}
			if _, err := sub.RegisterAll(pub); err != nil {
				errs <- err
				return
			}
			subs[w] = sub
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := pub.Publish(doc); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the dust settles every racer decrypts its subdocument.
	b, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	for w, sub := range subs {
		if got, _ := sub.Decrypt(b); len(got) != 1 {
			t.Errorf("racer %d decrypted %d subdocs", w, len(got))
		}
	}
}

func TestGroupedBroadcastGobRoundTrip(t *testing.T) {
	// Grouped headers are plain exported values too: a reflection codec
	// carries them unchanged.
	params, mgr := testEnv(t)
	acps, doc, table := workload(t, 5, 2, 2, 64)
	pub, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8, GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	importTable(t, pub, table)
	b, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		t.Fatal(err)
	}
	var dec Broadcast
	if err := gob.NewDecoder(&buf).Decode(&dec); err != nil {
		t.Fatal(err)
	}
	if got, _ := subFromRow(t, "pn-4", table["pn-4"]).Decrypt(&dec); len(got) != 2 {
		t.Errorf("decrypted %d subdocs from gob copy, want 2", len(got))
	}
}

func TestGroupedScanReusesOneVerifierBuffer(t *testing.T) {
	// A subscriber that is in no shard — revoked but still listening, or a
	// joiner before its hint exists — tries every shard against the
	// configuration's verifier ciphertext. Every attempt fails its tag, and
	// none of them may cost a plaintext-sized buffer: the scan opens into one.
	const subdocBytes = 64 << 10
	params, mgr := testEnv(t)
	acps, doc, table := workload(t, 17, 1, 17, subdocBytes)
	pub, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8, GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	importTable(t, pub, table)
	sub := subFromRow(t, "pn-5", table["pn-5"])
	if err := pub.RevokeSubscription("pn-5"); err != nil {
		t.Fatal(err)
	}
	b, err := pub.Publish(doc)
	if err != nil {
		t.Fatal(err)
	}
	shards := len(b.Configs[0].Grouped.Shards)
	if shards < 8 {
		t.Fatalf("want at least 8 shards to scan, got %d", shards)
	}
	scan := func() {
		if got, err := sub.Decrypt(b); err != nil || len(got) != 0 {
			t.Fatalf("revoked subscriber decrypted %d subdocs (err %v)", len(got), err)
		}
	}
	scan() // fills the KEV cache, so the measured scan is dot products and tag checks
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	scan()
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 2*subdocBytes {
		t.Errorf("a scan over %d wrong shards of a %d-byte verifier allocated %d bytes, want one buffer's worth",
			shards, subdocBytes, got)
	}
}
