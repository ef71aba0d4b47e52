package pubsub

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ppcd/internal/codec"
	"ppcd/internal/core"
	"ppcd/internal/document"
	"ppcd/internal/idtoken"
	"ppcd/internal/linalg"
	"ppcd/internal/ocbe"
	"ppcd/internal/policy"
)

// TestStateV2RoundTripDeterministic pins the full warm-restart contract at
// the pubsub layer: a segmented export restored into a fresh publisher
// preserves the table, sticky group assignments, membership versions, epoch
// counter, incarnation generation and engine caches — so re-exporting yields
// byte-identical segments, and the first post-restore publish performs zero
// solves and diffs small against the pre-restore broadcast.
func TestStateV2RoundTripDeterministic(t *testing.T) {
	env := newDeltaEnv(t, 2, 3)
	var nyms []string
	for i := 0; i < 9; i++ {
		nyms = append(nyms, env.join(t, 1+i%2))
	}
	if _, err := env.pub.Publish(env.doc); err != nil {
		t.Fatal(err)
	}
	if err := env.pub.RevokeSubscription(nyms[4]); err != nil {
		t.Fatal(err)
	}
	pre, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}

	env2 := newDeltaEnv(t, 2, 3)
	state := restart(t, env.pub, env2.pub)
	if env2.pub.SubscriberCount() != env.pub.SubscriberCount() {
		t.Fatalf("restored %d subscribers, want %d", env2.pub.SubscriberCount(), env.pub.SubscriberCount())
	}
	if env2.pub.Generation() != env.pub.Generation() {
		t.Error("generation not preserved across restore")
	}
	if env2.pub.Epoch() != env.pub.Epoch() {
		t.Errorf("epoch %d after restore, want %d", env2.pub.Epoch(), env.pub.Epoch())
	}

	// Sticky group assignments restored exactly: nobody moves shards.
	wantAssign := env.pub.reg.exportFull().grpAssign
	gotAssign := env2.pub.reg.exportFull().grpAssign
	if len(gotAssign) != len(wantAssign) {
		t.Fatalf("restored assignments for %d policies, want %d", len(gotAssign), len(wantAssign))
	}
	for id, want := range wantAssign {
		got := gotAssign[id]
		if len(got) != len(want) {
			t.Fatalf("policy %s: %d assigned members, want %d", id, len(got), len(want))
		}
		for nym, gid := range want {
			if got[nym] != gid {
				t.Errorf("policy %s: %s moved from group %d to %d across restore", id, nym, gid, got[nym])
			}
		}
	}

	// Deterministic encoding: the restored publisher re-exports the very
	// same segments.
	state2, err := env2.pub.ExportStateSegments(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(payloads(state), payloads(state2), bytes.Equal) {
		t.Error("re-export differs from the segments restored")
	}

	// First post-restore publish: zero solves, epoch continues, and the
	// delta against the pre-restore broadcast is empty — a reconnecting
	// subscriber pays nothing.
	before := env2.pub.Stats()
	post, err := env2.pub.Publish(env2.doc)
	if err != nil {
		t.Fatal(err)
	}
	after := env2.pub.Stats()
	if solves := after.Solves - before.Solves; solves != 0 {
		t.Errorf("first post-restore publish performed %d solves, want 0", solves)
	}
	if post.Epoch != pre.Epoch+1 || post.Gen != pre.Gen {
		t.Errorf("post-restore broadcast epoch %d gen match %v, want epoch %d and matching gen",
			post.Epoch, post.Gen == pre.Gen, pre.Epoch+1)
	}
	d, err := Diff(pre, post)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Configs) != 0 || len(d.Items) != 0 || d.PoliciesChanged {
		t.Errorf("post-restore delta ships %d configs %d items, want empty", len(d.Configs), len(d.Items))
	}

	// A surviving member resumes its stream across the restart with a warm
	// KEV cache: applying the restart-spanning delta re-derives its key
	// without hashing a single fresh KEV.
	member := env.subscriber(t, nyms[0])
	if err := member.ApplySnapshot(pre); err != nil {
		t.Fatal(err)
	}
	if _, err := member.DecryptCurrent("doc"); err != nil {
		t.Fatal(err)
	}
	base := member.kevMisses
	if err := member.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if got, err := member.DecryptCurrent("doc"); err != nil || len(got) == 0 {
		t.Fatalf("member decrypts %d subdocs across restart (err=%v)", len(got), err)
	}
	if member.kevMisses != base {
		t.Errorf("restart-spanning delta cost %d fresh KEV hashings, want 0", member.kevMisses-base)
	}
	// The revoked subscriber stays out after the restore.
	if got, _ := env.subscriber(t, nyms[4]).Decrypt(post); len(got) != 0 {
		t.Error("revoked subscriber decrypts after restore")
	}
}

// TestWarmRestartAcceptance pins the PR's acceptance criterion at scale:
// 256 subscribers, grouping degree 4 — a restored publisher's first publish
// performs zero null-space solves and the restart-spanning delta stays far
// below the snapshot a cold subscriber would need.
func TestWarmRestartAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("256-subscriber acceptance run")
	}
	const subs, groups = 256, 4
	env := newDeltaEnv(t, 2, subs/groups)
	for i := 0; i < subs; i++ {
		env.join(t, 1+i%2)
	}
	if _, err := env.pub.Publish(env.doc); err != nil {
		t.Fatal(err)
	}
	pre, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	env2 := newDeltaEnv(t, 2, subs/groups)
	restart(t, env.pub, env2.pub)
	if env2.pub.Epoch() != pre.Epoch || env2.pub.Generation() != pre.Gen {
		t.Errorf("restored epoch %d, generation kept %v; want epoch %d and the generation", env2.pub.Epoch(), env2.pub.Generation() == pre.Gen, pre.Epoch)
	}
	before := env2.pub.Stats()
	post, err := env2.pub.Publish(env2.doc)
	if err != nil {
		t.Fatal(err)
	}
	if solves := env2.pub.Stats().Solves - before.Solves; solves != 0 {
		t.Errorf("warm restart at %d subs g=%d: first publish performed %d solves, want 0", subs, groups, solves)
	}
	if post.Epoch != pre.Epoch+1 || post.Gen != pre.Gen {
		t.Errorf("first publish after the restart at epoch %d, want %d under the same generation", post.Epoch, pre.Epoch+1)
	}
	d, err := Diff(pre, post)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Configs) != 0 || len(d.Items) != 0 {
		t.Errorf("restart-spanning delta ships %d configs %d items, want empty", len(d.Configs), len(d.Items))
	}
}

// TestStateV2Hardening: a damaged or crafted meta segment fails the import
// loudly, naming what is wrong, and leaves the publisher untouched — every
// hand-built hostile case, and a truncation every few bytes and a spread of
// bit flips of real grouped and ungrouped segments — and a segment set past
// the size limit is refused before anything decodes.
func TestStateV2Hardening(t *testing.T) {
	untouched := func(name string, p *Publisher) {
		t.Helper()
		if p.SubscriberCount() != 0 || p.Epoch() != 0 || len(p.LastBroadcasts()) != 0 {
			t.Errorf("%s: refused import left %d rows, epoch %d", name, p.SubscriberCount(), p.Epoch())
		}
	}
	for _, groupSize := range []int{0, 3} {
		env := newSegEnv(t, groupSize)
		churned(t, env)
		meta, table, cache := segmentsOf(t, env.pub, 4)
		fresh := func() *Publisher { return newSegEnv(t, groupSize).pub }

		for name, h := range hostileMetaSegments(meta) {
			p := fresh()
			tab, ca := [][]byte(nil), [][]byte(nil) // the hand-built ones describe an empty table
			if name == "v2" || name == "trailing" {
				tab, ca = table, cache
			}
			if _, err := p.ImportStateSegments(4, h.data, tab, ca, 2); err == nil || !strings.Contains(err.Error(), h.want) {
				t.Errorf("g%d %s: %v, want a refusal naming %q", groupSize, name, err, h.want)
			}
			untouched(name, p)
		}
		for cut := 0; cut < len(meta); cut += 7 {
			p := fresh()
			if _, err := p.ImportStateSegments(4, meta[:cut], table, cache, 2); err == nil {
				t.Fatalf("g%d: meta segment cut to %d of %d bytes imported", groupSize, cut, len(meta))
			}
			untouched("truncation", p)
		}
		// A flip in an opaque string (a policy ID, a signature) may still
		// decode; in production the AEAD layer (internal/store) refuses every
		// flip first. The point is no panic and no partial import.
		for off := 0; off < len(meta); off += 13 {
			mut := slices.Clone(meta)
			mut[off] ^= 0x80
			p := fresh()
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("g%d: bit flip at %d panicked: %v", groupSize, off, r)
					}
				}()
				if _, err := p.ImportStateSegments(4, mut, table, cache, 2); err != nil {
					untouched("bit flip", p)
				}
			}()
		}
	}

	// The hand-built cases are only hostile if their template is sound.
	w := &stateWriter{}
	w.u8(segPayloadVersion)
	w.u64(1) // epoch
	w.u64(7) // gen
	w.u32(0) // membership versions
	w.u32(0) // group universes
	w.u32(1) // one diff base: document "doc" at epoch 1, nothing in it
	w.str("doc")
	w.str("doc")
	w.u64(1)
	w.u64(7)
	for range 4 { // policies, configurations, items, digests
		w.u32(0)
	}
	p := newSegEnv(t, 3).pub
	if _, err := p.ImportStateSegments(4, w.out(), nil, nil, 2); err != nil || p.Epoch() != 1 || p.Generation() != 7 {
		t.Fatalf("hand-built template: %v, epoch %d, generation %d", err, p.Epoch(), p.Generation())
	}

	// Oversized total input.
	big := make([]byte, maxStateBytes+1)
	if _, err := newSegEnv(t, 3).pub.ImportStateSegments(4, big, nil, nil, 2); err == nil {
		t.Error("oversized state imported")
	}
}

// TestApplyStateEventIdempotent: WAL replay over a snapshot that already
// contains the event must not dirty memberships (the engine would otherwise
// re-solve clean configurations after every crash recovery).
func TestApplyStateEventIdempotent(t *testing.T) {
	env := newDeltaEnv(t, 2, 0)
	nym := env.join(t, 2)
	cells := make(map[string]core.CSS)
	for cond, css := range env.css[nym] {
		cells[cond] = css
	}
	if _, err := env.pub.Publish(env.doc); err != nil {
		t.Fatal(err)
	}

	// Replaying the registration with identical cells: no version bump, no
	// solve on the next publish.
	if err := env.pub.ApplyStateEvent(StateEvent{Kind: StateEventRegister, Nym: nym, Cells: cells}); err != nil {
		t.Fatal(err)
	}
	before := env.pub.Stats()
	if _, err := env.pub.Publish(env.doc); err != nil {
		t.Fatal(err)
	}
	if solves := env.pub.Stats().Solves - before.Solves; solves != 0 {
		t.Errorf("idempotent replay caused %d solves", solves)
	}

	// Replaying a revocation for an absent row is a no-op, not an error.
	if err := env.pub.ApplyStateEvent(StateEvent{Kind: StateEventRevokeSubscription, Nym: "pn-ghost"}); err != nil {
		t.Fatal(err)
	}
	// Epoch replay is a max, never a rollback.
	if err := env.pub.ApplyStateEvent(StateEvent{Kind: StateEventPublish, Doc: "doc", Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if got := env.pub.Epoch(); got < 2 {
		t.Errorf("epoch rolled back to %d", got)
	}
	// Bad events are rejected.
	if err := env.pub.ApplyStateEvent(StateEvent{Kind: 99}); err == nil {
		t.Error("unknown event kind accepted")
	}
	if err := env.pub.ApplyStateEvent(StateEvent{Kind: StateEventRegister, Nym: "", Cells: cells}); err == nil {
		t.Error("empty nym accepted")
	}
	if err := env.pub.ApplyStateEvent(StateEvent{Kind: StateEventRegister, Nym: "pn-x",
		Cells: map[string]core.CSS{"attr0 >= 1": 0}}); err == nil {
		t.Error("zero CSS accepted")
	}
}

// TestJournalWriteAhead: a failing journal must veto the mutation it logs —
// the write-ahead discipline (no state change the log does not cover). A
// registration batch is one commit: the journal's failure voids all of it.
func TestJournalWriteAhead(t *testing.T) {
	env := newDeltaEnv(t, 2, 0)
	nym := env.join(t, 1)
	if _, err := env.pub.Publish(env.doc); err != nil {
		t.Fatal(err)
	}
	failing := journalFunc(func(StateEvent) error { return fmt.Errorf("disk full") })
	env.pub.SetJournal(failing)

	if err := env.pub.RevokeSubscription(nym); err == nil {
		t.Error("revocation succeeded with a failing journal")
	}
	if env.pub.SubscriberCount() != 1 {
		t.Error("vetoed revocation still removed the row")
	}
	if _, err := env.pub.Publish(env.doc); err == nil {
		t.Error("publish succeeded with a failing journal")
	}

	// Two pseudonyms × two conditions, every item valid.
	batch := append(registrationBatch(t, env.pub, "pn-batch-a"), registrationBatch(t, env.pub, "pn-batch-b")...)
	before := env.pub.Stats()
	results, err := env.pub.RegisterBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results for a batch of 4", len(results))
	}
	for i, res := range results {
		if res.Envelope != nil || !strings.Contains(res.Err, "disk full") {
			t.Errorf("item %d of a vetoed batch: envelope %v, error %q", i, res.Envelope != nil, res.Err)
		}
	}
	if n := env.pub.SubscriberCount(); n != 1 {
		t.Errorf("vetoed batch left %d rows, want 1", n)
	}

	epochBefore := env.pub.Epoch()
	env.pub.SetJournal(nil)
	b, err := env.pub.Publish(env.doc)
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch != epochBefore+1 {
		t.Errorf("vetoed publish leaked epoch: %d after %d", b.Epoch, epochBefore)
	}
	if solves := env.pub.Stats().Solves - before.Solves; solves != 0 {
		t.Errorf("publish after a vetoed batch did %d solves, want 0", solves)
	}
}

// TestSetJournalRace: the journal pointer is written under mutMu and then
// pubMu and read under one of them, so attaching and detaching a journal
// while registrations, revocations and publishes run is race-free (this test
// is for go test -race).
func TestSetJournalRace(t *testing.T) {
	env := newDeltaEnv(t, 2, 0)
	var batches [][]*RegistrationRequest
	for i := 0; i < 3; i++ {
		batches = append(batches, registrationBatch(t, env.pub, fmt.Sprintf("pn-race-%d", i)))
	}
	var revokees []string
	for i := 0; i < 6; i++ {
		revokees = append(revokees, env.join(t, 2))
	}
	var logged atomic.Int64
	log := journalFunc(func(StateEvent) error {
		logged.Add(1)
		return nil
	})

	stop := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				env.pub.SetJournal(log)
			} else {
				env.pub.SetJournal(nil)
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, len(batches)+len(revokees)+4)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, batch := range batches {
			results, err := env.pub.RegisterBatch(batch)
			if err == nil {
				for _, res := range results {
					if res.Err != "" {
						err = errors.New(res.Err)
					}
				}
			}
			if err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, nym := range revokees {
			if err := env.pub.RevokeCredential(nym, "attr0 >= 1"); err != nil {
				errs <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := env.pub.Publish(env.doc); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-toggled
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := env.pub.SubscriberCount(); n != len(batches)+len(revokees) {
		t.Errorf("%d rows after the race, want %d", n, len(batches)+len(revokees))
	}
	t.Logf("%d events journaled while the journal came and went", logged.Load())
}

// registrationBatch returns nym's registration requests for every condition
// of pub, each from a token whose attribute value is 1.
func registrationBatch(t *testing.T, pub *Publisher, nym string) []*RegistrationRequest {
	t.Helper()
	params, mgr := testEnv(t)
	var batch []*RegistrationRequest
	for _, cond := range pub.Conditions() {
		tok, sec, err := mgr.IssueString(nym, cond.Attr, "1")
		if err != nil {
			t.Fatal(err)
		}
		pred := ocbe.Predicate{Op: cond.Op, X0: idtoken.EncodeValue(params.Order(), cond.Value)}
		_, req, err := ocbe.NewReceiver(params, sec.Value, sec.Blinding).Prepare(pred, pub.Ell())
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, &RegistrationRequest{Token: tok, CondID: cond.ID(), OCBE: req})
	}
	return batch
}

// journalFunc is a journal whose commits resolve at once: each event goes to
// the function, and the first error fails the commit before apply runs.
type journalFunc func(StateEvent) error

func (f journalFunc) Begin(evs []StateEvent, apply func()) (CommitTicket, error) {
	for _, ev := range evs {
		if err := f(ev); err != nil {
			return nil, err
		}
	}
	if apply != nil {
		apply()
	}
	return doneTicket{}, nil
}

type doneTicket struct{}

func (doneTicket) Wait() error { return nil }

// TestAdmissionEnforcesStateCaps: identifiers that could never round-trip
// through the durable-state format are rejected at their source — a
// registration, publish or construction that succeeded but poisoned every
// later recovery would be a one-shot persistent denial of restart.
func TestAdmissionEnforcesStateCaps(t *testing.T) {
	env := newDeltaEnv(t, 1, 0)
	long := strings.Repeat("x", maxStateNymLen+1)

	if got := registerOne(t, env.pub, &RegistrationRequest{
		Token:  &idtoken.Token{Nym: long, Tag: "attr0", Commitment: []byte{1}},
		CondID: "attr0 >= 1",
		OCBE:   &ocbe.Request{Commitment: []byte{1}},
	}); !strings.Contains(got, "pseudonym") {
		t.Errorf("oversized pseudonym registered: %q", got)
	}
	if err := env.pub.ApplyStateEvent(StateEvent{Kind: StateEventRegister, Nym: long,
		Cells: map[string]core.CSS{"attr0 >= 1": 5}}); err == nil {
		t.Error("oversized pseudonym replayed")
	}

	doc := &document.Document{Name: strings.Repeat("d", maxStateCondLen+1),
		Subdocs: []document.Subdocument{{Name: "sd0", Content: []byte("x")}}}
	if _, err := env.pub.Publish(doc); err == nil {
		t.Error("oversized document name published")
	}

	params, mgr := testEnv(t)
	acp, err := policy.New(strings.Repeat("p", maxStateCondLen+1), "attr0 >= 1", "doc", "sd0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPublisher(params, mgr.PublicKey(), []*policy.ACP{acp}, Options{Ell: 8}); err == nil {
		t.Error("publisher accepted a policy ID beyond the state cap")
	}
}

// TestStateHeaderIsXAndSeed pins the header form of the durable state: X and
// the 32-byte seed of its nonce run, under 1.2 kB for a cached 128-row shard
// where the nonces written out made it 3.6, byte for byte what the commit
// before headers stopped holding their nonces wrote; a header decodes to what
// it rests as — X and the seed, no nonce expanded, nothing charged but X; a
// header listed beside its seed exports as the same bytes; and a header
// without a seed fails the export rather than writing a blob no import could
// read.
func TestStateHeaderIsXAndSeed(t *testing.T) {
	const n = 128
	seed := bytes.Repeat([]byte{5}, core.SeedSize)
	hdr := func(n int) *core.Header {
		return &core.Header{X: make(linalg.Vector, n+1), Seed: seed}
	}
	shards := []core.CachedShard{
		{ID: "acp0#0", Sig: strings.Repeat("s", 64), Hdr: hdr(n), Key: 7},
		{ID: "acp0#1", Sig: strings.Repeat("t", 64), Hdr: hdr(n - 9), Key: 8},
		{ID: "acp0#2", Sig: strings.Repeat("u", 64), Hdr: hdr(n), Key: 9},
	}
	seg, err := encodeCacheBucket(nil, shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if perShard := len(seg) / len(shards); perShard > 1200 || perShard < 8*(n-9)+core.SeedSize {
		t.Errorf("a cached %d-row shard takes %d B of its cache segment, want X + seed + names ≤ 1200", n, perShard)
	}
	const golden = "8c0391bfc4a784d5ec951fe09d1363752da67cc8b03f4667c54a5793b74f0f7d"
	if sum := sha256.Sum256(seg); len(seg) != 3403 || hex.EncodeToString(sum[:]) != golden {
		t.Errorf("cache segment is %d bytes with SHA-256 %x, want 3403 and %s", len(seg), sum, golden)
	}
	before := core.NonceExpansions()
	budget := codec.NewBudget(maxStateHeaderBudget)
	dec := decodeCacheSegment(seg, budget)
	if dec.err != nil || len(dec.shards) != len(shards) {
		t.Fatalf("decoded %d shards: %v", len(dec.shards), dec.err)
	}
	for i, s := range dec.shards {
		if !reflect.DeepEqual(s, shards[i]) {
			t.Errorf("shard %d differs across the cache segment", i)
		}
		if s.Hdr.Zs != nil || s.Hdr.N() != shards[i].Hdr.N() || &s.Hdr.Seed[0] == &seed[0] {
			t.Errorf("shard %d decoded to %d nonces, N=%d", i, len(s.Hdr.Zs), s.Hdr.N())
		}
	}
	if got := core.NonceExpansions() - before; got != 0 {
		t.Errorf("decoding a cache segment expanded %d seeds", got)
	}
	// Charged: every X, and nothing else.
	charged := 8*(n+1) + 8*(n-8) + 8*(n+1)
	if err := budget.Charge(maxStateHeaderBudget - charged); err != nil {
		t.Errorf("decode charged more than %d bytes", charged)
	}
	if err := budget.Charge(1); err == nil {
		t.Errorf("decode charged less than %d bytes", charged)
	}

	shards[1].Hdr = &core.Header{X: shards[1].Hdr.X, Zs: shards[1].Hdr.Nonces(), Seed: seed}
	if listed, err := encodeCacheBucket(nil, shards, nil); err != nil || !bytes.Equal(listed, seg) {
		t.Errorf("a header listed beside its seed exports differently: %v", err)
	}
	shards[1].Hdr = &core.Header{X: shards[1].Hdr.X, Zs: shards[1].Hdr.Zs}
	if _, err := encodeCacheBucket(nil, shards, nil); err == nil {
		t.Error("a header without a seed was exported")
	}
	v2 := append([]byte{2}, seg[1:]...)
	if dec := decodeCacheSegment(v2, nil); dec.err == nil || !strings.Contains(dec.err.Error(), "unsupported segment version 2") {
		t.Errorf("version-2 cache segment: %v", dec.err)
	}
}

// TestStateCodecKeepsNames: a header read back from the state codec holds
// the solve it was written from, as its name tells, and a grouped cache entry
// keeps its name and its slots; the retired inline slot kind is refused by
// name.
func TestStateCodecKeepsNames(t *testing.T) {
	hdr, _, err := core.Build([][]core.CSS{{1, 2}, {3, 4}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	w := &stateWriter{}
	writeStateHeader(w, hdr)
	got, err := readStateHeader(newStateReader(w.out(), nil))
	if err != nil || w.err != nil || got.Name() != hdr.Name() {
		t.Fatalf("state header round trip: %v, %v; name kept %v", err, w.err, got != nil && got.Name() == hdr.Name())
	}

	g := core.CachedGrouped{ID: "A", Sig: "s", RekeyNonce: bytes.Repeat([]byte{3}, core.NonceSize),
		Shards: []core.CachedGroupedShard{{ShardID: "acpA/0", Wrap: 5}}, Key: 6}
	seg, err := encodeCacheBucket(nil, nil, []core.CachedGrouped{g})
	if err != nil {
		t.Fatal(err)
	}
	dec := decodeCacheSegment(seg, nil)
	if dec.err != nil || !reflect.DeepEqual(dec.grouped, []core.CachedGrouped{g}) || dec.grouped[0].Name() != g.Name() {
		t.Fatalf("grouped cache entry round trip: %v", dec.err)
	}
	// version, three section counts, ID, Sig, nonce, slot count: the slot kind.
	kind := 1 + 3*4 + (4 + len(g.ID)) + (4 + len(g.Sig)) + (4 + core.NonceSize) + 4
	if seg[kind] != stShardRef {
		t.Fatalf("slot kind at %d is %d", kind, seg[kind])
	}
	seg[kind] = stShardInline
	if dec := decodeCacheSegment(seg, nil); dec.err == nil || !strings.Contains(dec.err.Error(), "retired") {
		t.Errorf("an inline grouped sub-header: %v, want it refused as retired", dec.err)
	}
}

// TestStateV2GroupCountBudget: the per-policy group universes are the one
// decode allocation not bounded by input bytes; a crafted meta segment
// packing many maximum-universe policies must hit the shared budget, not the
// OOM killer.
func TestStateV2GroupCountBudget(t *testing.T) {
	env := newDeltaEnv(t, 1, 2)
	if _, err := env.pub.ImportStateSegments(4, groupUniverseMeta(), nil, nil, 2); err == nil || !strings.Contains(err.Error(), "exceeds limits") {
		t.Fatalf("meta segment demanding gigabytes of group state: %v", err)
	}
}

// TestSegmentExportCacheRebucket pins the cache-geometry escape hatch: a base
// snapshot pinned at too few cache buckets (typically one taken before the
// first publish, when the cache was empty) must not chain that coarse
// partition forever. The next incremental export re-buckets the cache to the
// count its entry population deserves — rewriting every bucket once — while
// the table still carries its clean segments. Shrink keeps the base count so
// the partition never flaps around a growth threshold.
func TestSegmentExportCacheRebucket(t *testing.T) {
	env := newDeltaEnv(t, 2, 3)
	for i := 0; i < 6; i++ {
		env.join(t, 1+i%2)
	}
	if _, err := env.pub.Publish(env.doc); err != nil {
		t.Fatal(err)
	}

	full, err := env.pub.ExportStateSegments(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Full {
		t.Fatal("nil base did not force a full export")
	}
	want := full.Geometry.CacheSegs
	if want < 2 {
		t.Fatalf("cache bucket floor %d leaves nothing to re-bucket", want)
	}

	// Base pinned below the deserved bucket count: incremental, re-bucketed.
	pinned := &SegmentBase{
		Geometry: SegmentGeometry{
			SegSlots:  full.Geometry.SegSlots,
			TableSegs: full.Geometry.TableSegs,
			CacheSegs: want / 2,
		},
		TabGen:       full.TabGen,
		CacheDigests: make([][32]byte, want/2),
	}
	exp, err := env.pub.ExportStateSegments(full.Geometry.SegSlots, pinned)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Full {
		t.Fatal("cache re-bucket escalated to a full export")
	}
	if exp.Geometry.CacheSegs != want {
		t.Fatalf("re-bucketed to %d cache buckets, want %d", exp.Geometry.CacheSegs, want)
	}
	if rewritten(exp.Cache) != want {
		t.Fatalf("re-bucket rewrote %d of %d cache buckets", rewritten(exp.Cache), want)
	}
	if rewritten(exp.Table) != 0 {
		t.Fatalf("re-bucket dirtied %d clean table segments", rewritten(exp.Table))
	}

	// Matching base: everything clean carries.
	carry := &SegmentBase{Geometry: exp.Geometry, TabGen: exp.TabGen, CacheDigests: exp.CacheDigests}
	quiet, err := env.pub.ExportStateSegments(full.Geometry.SegSlots, carry)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Full || rewritten(quiet.Cache) != 0 || rewritten(quiet.Table) != 0 {
		t.Fatalf("quiet export rewrote table=%d cache=%d full=%v", rewritten(quiet.Table), rewritten(quiet.Cache), quiet.Full)
	}

	// Base pinned above the deserved count: the partition is kept, not shrunk.
	wide := &SegmentBase{
		Geometry: SegmentGeometry{
			SegSlots:  full.Geometry.SegSlots,
			TableSegs: full.Geometry.TableSegs,
			CacheSegs: want * 2,
		},
		TabGen:       full.TabGen,
		CacheDigests: make([][32]byte, want*2),
	}
	kept, err := env.pub.ExportStateSegments(full.Geometry.SegSlots, wide)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Full || kept.Geometry.CacheSegs != want*2 {
		t.Fatalf("shrink changed the partition: full=%v cacheSegs=%d, want %d kept", kept.Full, kept.Geometry.CacheSegs, want*2)
	}
}

// rowCopy returns a copy of one pseudonym's row (nil if absent).
func (r *registry) rowCopy(nym string) map[string]core.CSS {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.tab.slotOf[nym]
	if !ok {
		return nil
	}
	out := make(map[string]core.CSS)
	for ci, v := range r.tab.row(s) {
		if v != 0 {
			out[r.tab.conds[ci]] = v
		}
	}
	return out
}
