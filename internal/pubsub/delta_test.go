package pubsub

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/document"
	"ppcd/internal/ff64"
	"ppcd/internal/policy"
	"ppcd/internal/sym"
)

// deltaEnv is a publisher with registry-injected subscribers (no OCBE, so
// churn property tests stay fast) plus the mirror CSS maps for building
// subscriber-side state.
type deltaEnv struct {
	pub  *Publisher
	doc  *document.Document
	css  map[string]map[string]core.CSS // nym → cond → CSS
	next int
}

func newDeltaEnv(t *testing.T, policies, groupSize int) *deltaEnv {
	t.Helper()
	params, mgr := testEnv(t)
	var acps []*policy.ACP
	var subdocs []document.Subdocument
	for i := 0; i < policies; i++ {
		a, err := policy.New(fmt.Sprintf("acp%d", i), fmt.Sprintf("attr%d >= 1", i), "doc", fmt.Sprintf("sd%d", i))
		if err != nil {
			t.Fatal(err)
		}
		acps = append(acps, a)
		subdocs = append(subdocs, document.Subdocument{Name: fmt.Sprintf("sd%d", i), Content: []byte(fmt.Sprintf("content of sd%d", i))})
	}
	doc, err := document.New("doc", subdocs...)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8, GroupSize: groupSize})
	if err != nil {
		t.Fatal(err)
	}
	return &deltaEnv{pub: pub, doc: doc, css: make(map[string]map[string]core.CSS)}
}

// join registers a synthetic subscriber for the first `conds` conditions by
// writing CSS cells straight into table T (the crypto-free equivalent of a
// successful OCBE registration).
func (e *deltaEnv) join(t testing.TB, conds int) string {
	t.Helper()
	nym := fmt.Sprintf("pn-%d", e.next)
	e.next++
	cells := make(map[string]core.CSS, conds)
	for i := 0; i < conds; i++ {
		css, err := core.NewCSS()
		if err != nil {
			t.Fatal(err)
		}
		cells[fmt.Sprintf("attr%d >= 1", i)] = css
	}
	e.pub.reg.setCells(nym, cells)
	if e.css[nym] == nil {
		e.css[nym] = make(map[string]core.CSS)
	}
	for k, v := range cells {
		e.css[nym][k] = v
	}
	return nym
}

// subscriber builds a Subscriber holding nym's mirror CSSs.
func (e *deltaEnv) subscriber(t *testing.T, nym string) *Subscriber {
	t.Helper()
	s, err := NewSubscriber(nym)
	if err != nil {
		t.Fatal(err)
	}
	for cond, css := range e.css[nym] {
		s.css[cond] = css
	}
	return s
}

func decryptEq(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(v, b[k]) {
			return false
		}
	}
	return true
}

// TestDeltaPropertyRandomChurn drives random churn sequences — joins,
// subscription revocations and credential revocations interleaved with
// publishes — in both grouped and ungrouped modes, and checks after every
// publish that a streaming subscriber (one snapshot + deltas ever since)
// decrypts byte-identically to a subscriber handed the full broadcast.
func TestDeltaPropertyRandomChurn(t *testing.T) {
	for _, groupSize := range []int{0, 3} {
		groupSize := groupSize
		t.Run(fmt.Sprintf("groupSize=%d", groupSize), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7 + int64(groupSize)))
			env := newDeltaEnv(t, 3, groupSize)
			var members []string
			for i := 0; i < 8; i++ {
				members = append(members, env.join(t, 1+rng.Intn(3)))
			}
			watcherNym := env.join(t, 3) // holds every condition, never revoked
			watcher := env.subscriber(t, watcherNym)

			b, err := env.pub.Publish(env.doc)
			if err != nil {
				t.Fatal(err)
			}
			if err := watcher.ApplySnapshot(b); err != nil {
				t.Fatal(err)
			}
			prev := b

			for step := 0; step < 25; step++ {
				switch op := rng.Intn(4); {
				case op == 0:
					members = append(members, env.join(t, 1+rng.Intn(3)))
				case op == 1 && len(members) > 0:
					i := rng.Intn(len(members))
					if err := env.pub.RevokeSubscription(members[i]); err != nil {
						t.Fatal(err)
					}
					members = append(members[:i], members[i+1:]...)
				case op == 2 && len(members) > 0:
					i := rng.Intn(len(members))
					nym := members[i]
					// Revoke one credential the nym actually holds; revoking
					// its last cell removes the row, so drop it from the
					// member pool then.
					for cond := range env.pub.reg.rowCopy(nym) {
						if err := env.pub.RevokeCredential(nym, cond); err != nil {
							t.Fatal(err)
						}
						break
					}
					if env.pub.reg.rowCopy(nym) == nil {
						members = append(members[:i], members[i+1:]...)
					}
				default:
					// publish with no table change (steady state)
				}

				cur, err := env.pub.Publish(env.doc)
				if err != nil {
					t.Fatal(err)
				}
				d, err := Diff(prev, cur)
				if err != nil {
					t.Fatal(err)
				}
				if err := watcher.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
				if got := watcher.Current("doc").Epoch; got != cur.Epoch {
					t.Fatalf("step %d: patched state at epoch %d, want %d", step, got, cur.Epoch)
				}

				fresh := env.subscriber(t, watcherNym)
				want, err := fresh.Decrypt(cur)
				if err != nil {
					t.Fatal(err)
				}
				got, err := watcher.DecryptCurrent("doc")
				if err != nil {
					t.Fatal(err)
				}
				if !decryptEq(got, want) {
					t.Fatalf("step %d: delta-patched decrypt differs from full fetch (%d vs %d subdocs)", step, len(got), len(want))
				}
				if len(want) != 3 {
					t.Fatalf("step %d: watcher decrypted %d of 3 subdocs from the full broadcast", step, len(want))
				}
				prev = cur
			}
		})
	}
}

// TestDeltaSkipsBaseEpoch asserts Apply refuses a delta whose base does not
// match the held state and that Diff validates its inputs.
func TestDeltaValidation(t *testing.T) {
	env := newDeltaEnv(t, 2, 0)
	env.join(t, 2)
	b1, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	env.join(t, 1)
	b2, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	b3, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Diff(b2, b2); err == nil {
		t.Error("Diff accepted equal epochs")
	}
	if _, err := Diff(b2, b1); err == nil {
		t.Error("Diff accepted a backwards epoch pair")
	}

	d23, err := Diff(b2, b3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d23.Apply(b1); err == nil {
		t.Error("Apply accepted a mismatched base epoch")
	}
	got, err := d23.Apply(b2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != b3.Epoch {
		t.Errorf("applied state at epoch %d, want %d", got.Epoch, b3.Epoch)
	}
}

// TestDeltaRejectsOtherGeneration pins the publisher-restart protection: a
// subscriber holding state from one publisher incarnation must reject a
// delta from another even when the epoch numbers collide (restarted
// publishers renumber epochs from 1).
func TestDeltaRejectsOtherGeneration(t *testing.T) {
	envA := newDeltaEnv(t, 2, 0)
	envA.join(t, 2)
	a1, err := envA.pub.Publish(envA.doc)
	if err != nil {
		t.Fatal(err)
	}

	// "Restarted" publisher: same policies, fresh incarnation, its own
	// epoch numbering.
	envB := newDeltaEnv(t, 2, 0)
	envB.join(t, 2)
	b1, err := envB.pub.Publish(envB.doc)
	if err != nil {
		t.Fatal(err)
	}
	envB.join(t, 1)
	b2, err := envB.pub.Publish(envB.doc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(b1, b2)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSubscriber("pn-gen")
	if err != nil {
		t.Fatal(err)
	}
	// State from incarnation A at an epoch that numerically matches the
	// delta's base from incarnation B.
	stale := *a1
	stale.Epoch = d.BaseEpoch
	if err := s.ApplySnapshot(&stale); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyDelta(d); !errors.Is(err, ErrDeltaBaseMismatch) {
		t.Fatalf("cross-generation delta applied: err=%v", err)
	}
}

// TestSteadyStateDeltaIsEmpty asserts the headline dissemination property:
// a publish with no membership or content change produces a delta with no
// configuration patches and no items — the steady-state stream cost is the
// frame overhead alone.
func TestSteadyStateDeltaIsEmpty(t *testing.T) {
	for _, groupSize := range []int{0, 3} {
		env := newDeltaEnv(t, 3, groupSize)
		for i := 0; i < 6; i++ {
			env.join(t, 1+i%3)
		}
		b1, err := env.pub.Publish(env.doc)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := env.pub.Publish(env.doc)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Diff(b1, b2)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Configs) != 0 || len(d.Items) != 0 || len(d.RemovedConfigs) != 0 || len(d.RemovedItems) != 0 || d.PoliciesChanged {
			t.Errorf("groupSize=%d: steady-state delta not empty: %d config patches, %d items", groupSize, len(d.Configs), len(d.Items))
		}
		// The carried-forward ciphertexts are byte-identical.
		for i := range b2.Items {
			if !bytes.Equal(b1.Items[i].Ciphertext, b2.Items[i].Ciphertext) {
				t.Errorf("steady-state republish re-encrypted item %q", b2.Items[i].Subdoc)
			}
		}
	}
}

// TestSingleLeaveDeltaShipsOneShard asserts the grouped incremental claim
// end to end at the delta layer: after one leave, the delta's grouped
// patches ship exactly the re-solved shard sub-headers (one per affected
// configuration), referencing every clean shard from the base.
func TestSingleLeaveDeltaShipsOneShard(t *testing.T) {
	env := newDeltaEnv(t, 1, 4)
	var nyms []string
	for i := 0; i < 16; i++ {
		nyms = append(nyms, env.join(t, 1))
	}
	b1, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := env.pub.RevokeSubscription(nyms[3]); err != nil {
		t.Fatal(err)
	}
	b2, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Configs) != 1 {
		t.Fatalf("single leave patched %d configurations, want 1", len(d.Configs))
	}
	gp := d.Configs[0].Grouped
	if gp == nil {
		t.Fatal("expected a grouped patch")
	}
	if len(gp.Headers) != 1 {
		t.Errorf("single leave shipped %d sub-headers, want 1", len(gp.Headers))
	}
	if len(gp.From) != 4 {
		t.Errorf("patch reconstructs %d shards, want 4", len(gp.From))
	}
	kept := 0
	for _, from := range gp.From {
		if from >= 0 {
			kept++
		}
	}
	if kept != 3 {
		t.Errorf("patch keeps %d base shards, want 3", kept)
	}
	// The leaver cannot decrypt the patched state; a member can.
	member := env.subscriber(t, nyms[0])
	if err := member.ApplySnapshot(b1); err != nil {
		t.Fatal(err)
	}
	if err := member.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if got, err := member.DecryptCurrent("doc"); err != nil || len(got) != 1 {
		t.Errorf("member decrypted %d subdocs after patch (err=%v)", len(got), err)
	}
	leaver := env.subscriber(t, nyms[3])
	if got, _ := leaver.Decrypt(b2); len(got) != 0 {
		t.Errorf("leaver decrypted %d subdocs after revocation", len(got))
	}
}

// TestKEVCacheSurvivesDeltaPatches asserts the §VIII-D receiver cache keeps
// paying across patches: a member of a clean shard re-derives its key after
// a delta without hashing a single fresh KEV.
func TestKEVCacheSurvivesDeltaPatches(t *testing.T) {
	env := newDeltaEnv(t, 1, 4)
	var nyms []string
	for i := 0; i < 16; i++ {
		nyms = append(nyms, env.join(t, 1))
	}
	b1, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	member := env.subscriber(t, nyms[0])
	if err := member.ApplySnapshot(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := member.DecryptCurrent("doc"); err != nil {
		t.Fatal(err)
	}
	base := member.kevMisses

	// Revoke someone from a different shard than nyms[0] (sticky least-full
	// assignment puts pn-0 and pn-3 in different groups of 4 among 16 rows
	// only if their join order differs by ≥4; pick the last joiner).
	if err := env.pub.RevokeSubscription(nyms[15]); err != nil {
		t.Fatal(err)
	}
	b2, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if err := member.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if got, err := member.DecryptCurrent("doc"); err != nil || len(got) != 1 {
		t.Fatalf("member decrypted %d subdocs after patch (err=%v)", len(got), err)
	}
	if member.kevMisses != base {
		t.Errorf("clean-shard member hashed %d fresh KEVs across a delta patch, want 0", member.kevMisses-base)
	}
}

// TestItemRevTracksPlaintext asserts a content-only change (same membership)
// re-ships exactly the changed item.
func TestItemRevTracksPlaintext(t *testing.T) {
	env := newDeltaEnv(t, 2, 0)
	env.join(t, 2)
	b1, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := document.New("doc",
		document.Subdocument{Name: "sd0", Content: []byte("content of sd0")},
		document.Subdocument{Name: "sd1", Content: []byte("EDITED")},
	)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := env.pub.Publish(doc2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Configs) != 0 {
		t.Errorf("content-only change patched %d configurations", len(d.Configs))
	}
	if len(d.Items) != 1 || d.Items[0].Subdoc != "sd1" {
		t.Fatalf("content-only change shipped items %+v, want exactly sd1", d.Items)
	}
}

// TestThrowawayConfigStaysQuiet: configurations nobody can access (fresh
// random key, no header) must not churn the delta stream.
func TestThrowawayConfigStaysQuiet(t *testing.T) {
	env := newDeltaEnv(t, 2, 0)
	env.join(t, 1) // qualifies only for acp0; acp1's configuration is inaccessible
	b1, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Configs) != 0 || len(d.Items) != 0 {
		t.Errorf("throwaway configuration churned the delta: %d patches, %d items", len(d.Configs), len(d.Items))
	}
}

// TestWrapSecrecyAcrossDelta: a patched grouped header must still deliver
// the fresh configuration key only through shard membership — the wraps in
// the patch are masked under group keys the leaver cannot derive.
func TestWrapSecrecyAcrossDelta(t *testing.T) {
	env := newDeltaEnv(t, 1, 4)
	var nyms []string
	for i := 0; i < 8; i++ {
		nyms = append(nyms, env.join(t, 1))
	}
	b1, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	leaver := nyms[1]
	leaverCSS := env.css[leaver]["attr0 >= 1"]
	if err := env.pub.RevokeSubscription(leaver); err != nil {
		t.Fatal(err)
	}
	b2, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diff(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	member := env.subscriber(t, nyms[0])
	if err := member.ApplySnapshot(b1); err != nil {
		t.Fatal(err)
	}
	if err := member.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	state := member.Current("doc")
	for _, ci := range state.Configs {
		if ci.Grouped == nil {
			continue
		}
		if _, _, err := core.DeriveKeyGrouped([]core.CSS{leaverCSS}, ci.Grouped, func(k ff64.Elem) bool {
			key := core.ExpandKey(k)
			for _, it := range state.Items {
				if it.Config == ci.Key {
					if _, err := sym.Decrypt(key, it.Ciphertext); err == nil {
						return true
					}
				}
			}
			return false
		}); err == nil {
			t.Error("revoked subscriber derived the configuration key from the patched header")
		}
	}
}

// TestApplyDerivesShardRevisions: a grouped patch carries no revision of a
// kept shard and none of a shard re-solved at its own epoch, yet a state
// reached by applying deltas — one epoch at a time, as a stream consumes them,
// or a catch-up over several, as a reconnect does — holds exactly the
// broadcast the publisher stamped, revisions included.
func TestApplyDerivesShardRevisions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	env := newDeltaEnv(t, 2, 3)
	var members []string
	for i := 0; i < 12; i++ {
		members = append(members, env.join(t, 1+rng.Intn(2)))
	}
	b, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	published, held := []*Broadcast{b}, []*Broadcast{b}
	var kept, moved, fresh, earlier int
	for step := 0; step < 40; step++ {
		switch {
		case rng.Intn(3) == 0 || len(members) < 4:
			members = append(members, env.join(t, 1+rng.Intn(2)))
		case rng.Intn(2) == 0:
			i := rng.Intn(len(members))
			if err := env.pub.RevokeSubscription(members[i]); err != nil {
				t.Fatal(err)
			}
			members = append(members[:i], members[i+1:]...)
		}
		cur, err := env.pub.Publish(env.doc)
		if err != nil {
			t.Fatal(err)
		}
		var next *Broadcast // cur as a stream reaches it, one epoch at a time
		for back := 1; back <= min(3, len(published)); back++ {
			d, err := Diff(published[len(published)-back], cur)
			if err != nil {
				t.Fatal(err)
			}
			for _, cp := range d.Configs {
				if cp.Grouped == nil {
					continue
				}
				for i, from := range cp.Grouped.From {
					switch {
					case from == i:
						kept++
					case from >= 0:
						moved++
					}
				}
				for _, rev := range cp.Grouped.Revs {
					if rev == d.Epoch {
						fresh++
					} else {
						earlier++
					}
				}
			}
			got, err := d.Apply(held[len(held)-back])
			if err != nil {
				t.Fatalf("step %d, %d epochs back: %v", step, back, err)
			}
			if !reflect.DeepEqual(got, cur) {
				t.Fatalf("step %d: the state applied over %d epochs differs from the broadcast (revisions %v, want %v)", step, back, shardRevs(got), shardRevs(cur))
			}
			if back == 1 {
				next = got
			}
		}
		published, held = append(published, cur), append(held, next)
	}
	t.Logf("shards kept in place %d, moved %d, shipped at the delta's epoch %d, shipped re-solved earlier %d", kept, moved, fresh, earlier)
	if kept == 0 || fresh == 0 || earlier == 0 {
		t.Errorf("the churn exercised kept %d, shipped %d and caught-up %d shards; want each", kept, fresh, earlier)
	}
}

// shardRevs lists a broadcast's shard revisions by configuration.
func shardRevs(b *Broadcast) map[policy.ConfigKey][]uint64 {
	out := make(map[policy.ConfigKey][]uint64)
	for _, ci := range b.Configs {
		out[ci.Key] = ci.ShardRevs
	}
	return out
}

// TestGroupedPatchReferences pins what a grouped patch says about each shard
// of a reassembled configuration: a kept shard at its own index or moved to
// another, one re-solved at the delta's epoch or earlier, and a shard whose
// sub-header the base holds under another revision, which is shipped — a
// reference would hand the receiver the base's revision. A shard is found in
// the base by the solve it holds, not by the object holding it.
func TestGroupedPatchReferences(t *testing.T) {
	hdr := func(x uint64) *core.Header { return &core.Header{X: []ff64.Elem{ff64.Elem(x)}} }
	a, b, c, d, e := hdr(1), hdr(2), hdr(3), hdr(4), hdr(5)
	grouped := func(epoch uint64, hs []*core.Header, revs []uint64) *Broadcast {
		g := &core.GroupedHeader{RekeyNonce: []byte{byte(epoch)}}
		for i, h := range hs {
			g.Shards = append(g.Shards, core.GroupShard{Hdr: h, Wrap: ff64.Elem(10*epoch + uint64(i))})
		}
		return &Broadcast{DocName: "doc", Epoch: epoch, Gen: 1, Configs: []ConfigInfo{{Key: "k", Rev: epoch, Grouped: g, ShardRevs: revs}}}
	}
	base := grouped(3, []*core.Header{a, b, c, e}, []uint64{1, 2, 3, 3})
	cases := []struct {
		name string
		cur  *Broadcast
		from []int
		revs []uint64
	}{
		{"kept, moved, re-solved at the epoch", grouped(5, []*core.Header{a, c, d}, []uint64{1, 3, 5}), []int{0, 2, -1}, []uint64{5}},
		{"re-solved before the epoch", grouped(7, []*core.Header{a, b, d}, []uint64{1, 2, 6}), []int{0, 1, -1}, []uint64{6}},
		{"in the base under another revision", grouped(5, []*core.Header{a, b, c, e}, []uint64{1, 2, 3, 2}), []int{0, 1, 2, -1}, []uint64{2}},
		{"the base's solves in other objects", grouped(5, []*core.Header{a.Clone(), c.Clone(), b.Clone()}, []uint64{1, 3, 2}), []int{0, 2, 1}, nil},
	}
	for _, tc := range cases {
		delta, err := Diff(base, tc.cur)
		if err != nil {
			t.Fatal(err)
		}
		p := delta.Configs[0].Grouped
		if !reflect.DeepEqual(p.From, tc.from) || !reflect.DeepEqual(p.Revs, tc.revs) {
			t.Errorf("%s: patch From %v Revs %v, want %v and %v", tc.name, p.From, p.Revs, tc.from, tc.revs)
		}
		got, err := delta.Apply(base)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.cur) {
			t.Errorf("%s: applied revisions %v, want %v", tc.name, got.Configs[0].ShardRevs, tc.cur.Configs[0].ShardRevs)
		}
	}
	// A base without revisions for its shards can back no reference.
	torn := grouped(3, []*core.Header{a, b}, []uint64{1})
	delta, err := Diff(base, grouped(5, []*core.Header{a, b}, []uint64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	delta.BaseEpoch = torn.Epoch
	if _, err := delta.Apply(torn); err == nil {
		t.Error("a patch applied over a base holding 1 revision for 2 shards")
	}
}
