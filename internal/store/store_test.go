package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/document"
	"ppcd/internal/g2"
	"ppcd/internal/idtoken"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/sym"
	"ppcd/internal/wire"
)

func testKey() [sym.KeySize]byte { return DeriveKey([]byte("store-test")) }

// readSnapshotFiles captures the installed segmented snapshot — the manifest
// plus every segment file — as name → bytes, so tests can replay it into
// simulated crash directories.
func readSnapshotFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		name := e.Name()
		if name == manifestName || (strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".ppcd")) {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = b
		}
	}
	if _, ok := out[manifestName]; !ok {
		t.Fatalf("no %s in %s", manifestName, dir)
	}
	return out
}

// testSystem is a real end-to-end fixture: a grouped publisher journaling to
// a store, the identity manager, and OCBE-registered subscribers.
type testSystem struct {
	params *pedersen.Params
	mgr    *idtoken.Manager
	pub    *pubsub.Publisher
	doc    *document.Document
	subs   map[string]*pubsub.Subscriber
}

func newTestSystem(t testing.TB, groupSize int) *testSystem {
	t.Helper()
	params, err := pedersen.Setup(g2.MustPaperCurve(), []byte("store-test"))
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := idtoken.NewManagerFromSeed(params, []byte("store-test-idmgr-seed-32-bytes!!"))
	if err != nil {
		t.Fatal(err)
	}
	acp, err := policy.New("acp0", "attr0 >= 1", "doc", "sd0")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := document.New("doc", document.Subdocument{Name: "sd0", Content: []byte("subdocument zero")})
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pubsub.NewPublisher(params, mgr.PublicKey(), []*policy.ACP{acp}, pubsub.Options{Ell: 4, GroupSize: groupSize})
	if err != nil {
		t.Fatal(err)
	}
	return &testSystem{params: params, mgr: mgr, pub: pub, doc: doc, subs: make(map[string]*pubsub.Subscriber)}
}

// newPub builds a fresh publisher incarnation over the same parameters and
// policies (a restarted process).
func (ts *testSystem) newPub(t testing.TB, groupSize int) *pubsub.Publisher {
	t.Helper()
	acp, err := policy.New("acp0", "attr0 >= 1", "doc", "sd0")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pubsub.NewPublisher(ts.params, ts.mgr.PublicKey(), []*policy.ACP{acp}, pubsub.Options{Ell: 4, GroupSize: groupSize})
	if err != nil {
		t.Fatal(err)
	}
	return pub
}

// join runs the real oblivious registration protocol for one subscriber.
func (ts *testSystem) join(t *testing.T, nym string) *pubsub.Subscriber {
	t.Helper()
	sub, err := pubsub.NewSubscriber(nym)
	if err != nil {
		t.Fatal(err)
	}
	tok, sec, err := ts.mgr.Issue(nym, "attr0", big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.AddToken(tok, sec); err != nil {
		t.Fatal(err)
	}
	if n, err := sub.RegisterAll(ts.pub); err != nil || n != 1 {
		t.Fatalf("RegisterAll: n=%d err=%v", n, err)
	}
	ts.subs[nym] = sub
	return sub
}

func TestEventCodecRoundTrip(t *testing.T) {
	events := []pubsub.StateEvent{
		{Kind: pubsub.StateEventRegister, Nym: "pn-a", Cells: map[string]core.CSS{"attr0 >= 1": 7, "attr1 >= 1": 9}},
		{Kind: pubsub.StateEventRevokeSubscription, Nym: "pn-b"},
		{Kind: pubsub.StateEventRevokeCredential, Nym: "pn-c", Cond: "attr0 >= 1"},
		{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: 42},
	}
	for _, ev := range events {
		got, err := decodeEvent(appendEvent(nil, ev))
		if err != nil {
			t.Fatalf("%+v: %v", ev, err)
		}
		if got.Kind != ev.Kind || got.Nym != ev.Nym || got.Cond != ev.Cond || got.Doc != ev.Doc || got.Epoch != ev.Epoch {
			t.Errorf("round trip mismatch: %+v vs %+v", ev, got)
		}
		if len(got.Cells) != len(ev.Cells) {
			t.Errorf("cells mismatch: %+v vs %+v", ev.Cells, got.Cells)
		}
		for k, v := range ev.Cells {
			if got.Cells[k] != v {
				t.Errorf("cell %q: %d vs %d", k, v, got.Cells[k])
			}
		}
	}
	if _, err := decodeEvent([]byte{99}); err == nil {
		t.Error("unknown event kind accepted")
	}
	if _, err := decodeEvent(append(appendEvent(nil, events[1]), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if s.stats.Restored {
		t.Error("fresh directory reported restored state")
	}
	for i := 0; i < 5; i++ {
		ev := pubsub.StateEvent{Kind: pubsub.StateEventRegister, Nym: fmt.Sprintf("pn-%d", i),
			Cells: map[string]core.CSS{"attr0 >= 1": core.CSS(i + 1)}}
		if err := commit(s, ev); err != nil {
			t.Fatal(err)
		}
	}
	if s.Seq() != 5 {
		t.Errorf("seq = %d, want 5", s.Seq())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !s2.stats.Restored || len(s2.pending) != 5 || s2.Seq() != 5 {
		t.Fatalf("reopen: restored=%v pending=%d seq=%d, want true/5/5",
			s2.stats.Restored, len(s2.pending), s2.Seq())
	}
	for i, rec := range s2.pending {
		if rec.Nym != fmt.Sprintf("pn-%d", i) {
			t.Errorf("pending[%d] = %q", i, rec.Nym)
		}
	}
	// Appending after a reopen continues the sequence.
	if err := commit(s2, pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if s2.Seq() != 6 {
		t.Errorf("seq after reopen append = %d, want 6", s2.Seq())
	}
}

func TestWrongKeyFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if err := commit(s, pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(dir, DeriveKey([]byte("wrong"))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("wrong key: err = %v, want ErrCorrupt (never silent truncation)", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := commit(s, pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, walName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A flipped bit in a non-tail record is corruption, not a torn write.
	flipped := append([]byte(nil), pristine...)
	flipped[len(walMagic)+12] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testKey()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mid-file bit flip: err = %v, want ErrCorrupt", err)
	}

	// Splicing a record out breaks sequence continuity.
	recLen := func(off int) int {
		return 8 + int(uint32(pristine[off])<<24|uint32(pristine[off+1])<<16|uint32(pristine[off+2])<<8|uint32(pristine[off+3]))
	}
	first := len(walMagic)
	n1 := recLen(first)
	n2 := recLen(first + n1)
	spliced := append([]byte(nil), pristine[:first+n1]...)
	spliced = append(spliced, pristine[first+n1+n2:]...)
	if err := os.WriteFile(path, spliced, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testKey()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("removed record: err = %v, want ErrCorrupt", err)
	}
}

// TestCrashRecoveryProperty is the WAL kill test: a real publisher journals
// registrations, revocations and publishes; the WAL is then cut at random
// byte offsets (a crash mid-append), the store reopened and replayed into a
// fresh incarnation, and the recovered publisher must (a) publish a
// steady-state broadcast whose immediate republish is byte-identical modulo
// epoch with zero null-space solves and valid subscriber KEV caches, (b)
// keep exactly the members whose revocations did not survive the cut, (c)
// never reuse an epoch a subscriber may have seen, (d) hold as its diff base
// the last broadcast whose publish record survived — the same snapshot-frame
// bytes — and (e) re-solve nothing on its first publish unless a table
// mutation survived after that record.
func TestCrashRecoveryProperty(t *testing.T) {
	ts := newTestSystem(t, 4)
	dir := t.TempDir()
	key := testKey()
	st, err := Open(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(ts.pub); err != nil {
		t.Fatal(err)
	}
	ts.pub.SetJournal(st)

	nyms := make([]string, 12)
	for i := range nyms {
		nyms[i] = fmt.Sprintf("pn-%d", i)
		ts.join(t, nyms[i])
	}
	preSnap, err := ts.pub.Publish(ts.doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(ts.pub); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot WAL tail: two revocations, a publish, one more join.
	live := map[uint64]*pubsub.Broadcast{preSnap.Epoch: preSnap}
	if err := ts.pub.RevokeSubscription(nyms[2]); err != nil {
		t.Fatal(err)
	}
	b, err := ts.pub.Publish(ts.doc)
	if err != nil {
		t.Fatal(err)
	}
	live[b.Epoch] = b
	if err := ts.pub.RevokeSubscription(nyms[7]); err != nil {
		t.Fatal(err)
	}
	ts.join(t, "pn-late")
	if b, err = ts.pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	live[b.Epoch] = b
	st.Close()

	walBytes, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	snapFiles := readSnapshotFiles(t, dir)

	rng := rand.New(rand.NewSource(7))
	cuts := []int{len(walMagic), len(walBytes)} // empty tail and intact WAL
	for i := 0; i < 10; i++ {
		cuts = append(cuts, len(walMagic)+rng.Intn(len(walBytes)-len(walMagic)+1))
	}
	for _, cut := range cuts {
		crashDir := t.TempDir()
		for name, b := range snapFiles {
			if err := os.WriteFile(filepath.Join(crashDir, name), b, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(crashDir, walName), walBytes[:cut], 0o600); err != nil {
			t.Fatal(err)
		}

		rst, err := Open(crashDir, key)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		// The surviving WAL suffix decides which mutations the recovered
		// incarnation must reflect.
		revoked := make(map[string]bool)
		joined := make(map[string]bool)
		walEpoch, lastBase, mutated := uint64(0), preSnap.Epoch, 0
		for _, ev := range rst.pending {
			switch ev.Kind {
			case pubsub.StateEventRevokeSubscription:
				revoked[ev.Nym] = true
				mutated++
			case pubsub.StateEventRegister:
				joined[ev.Nym] = true
				mutated++
			case pubsub.StateEventPublish:
				walEpoch, lastBase, mutated = ev.Epoch, ev.Epoch, 0
			}
		}

		rpub := ts.newPub(t, 4)
		if _, err := rst.Recover(rpub); err != nil {
			t.Fatalf("cut=%d: recover: %v", cut, err)
		}
		rst.Close()

		bases := rpub.LastBroadcasts()
		if len(bases) != 1 || !bytes.Equal(wire.MarshalSnapshotFrame(bases[0]), wire.MarshalSnapshotFrame(live[lastBase])) {
			t.Fatalf("cut=%d: the recovered diff base is not the broadcast of epoch %d", cut, lastBase)
		}
		b1, err := rpub.Publish(ts.doc)
		if err != nil {
			t.Fatalf("cut=%d: publish after recovery: %v", cut, err)
		}
		if solves := rpub.Stats().Solves; (mutated == 0) != (solves == 0) || solves > uint64(mutated) {
			t.Errorf("cut=%d: first publish solved %d shards with %d mutations journaled after the last publish", cut, solves, mutated)
		}
		if b1.Gen != preSnap.Gen {
			t.Fatalf("cut=%d: generation rotated across recovery", cut)
		}
		if b1.Epoch <= walEpoch || b1.Epoch <= preSnap.Epoch {
			t.Fatalf("cut=%d: epoch %d not ahead of recovered history (wal %d, snapshot-era %d)",
				cut, b1.Epoch, walEpoch, preSnap.Epoch)
		}

		// Steady state: an immediate republish must be byte-identical modulo
		// the epoch stamp — zero solves, empty delta no larger than a
		// steady-state frame.
		before := rpub.Stats()
		b2, err := rpub.Publish(ts.doc)
		if err != nil {
			t.Fatalf("cut=%d: steady republish: %v", cut, err)
		}
		if solves := rpub.Stats().Solves - before.Solves; solves != 0 {
			t.Errorf("cut=%d: steady republish performed %d solves", cut, solves)
		}
		d, err := pubsub.Diff(b1, b2)
		if err != nil {
			t.Fatalf("cut=%d: diff: %v", cut, err)
		}
		if len(d.Configs) != 0 || len(d.Items) != 0 || len(d.RemovedConfigs) != 0 || len(d.RemovedItems) != 0 || d.PoliciesChanged {
			t.Errorf("cut=%d: steady republish after recovery is not byte-identical", cut)
		}
		if delta, snap := len(wire.MarshalDeltaFrame(d)), len(wire.MarshalSnapshotFrame(b2)); delta >= snap {
			t.Errorf("cut=%d: steady delta %dB not below frame size %dB", cut, delta, snap)
		}

		// Membership: exactly the subscribers whose revocation survived the
		// cut are out; everyone else decrypts, with KEV caches warm across a
		// delta resume from their pre-crash broadcast.
		for nym, sub := range ts.subs {
			if joinedLate := nym == "pn-late"; joinedLate && !joined[nym] {
				continue // the join fell past the cut; no table row either side
			}
			got, err := sub.Decrypt(b1)
			if revoked[nym] {
				if len(got) != 0 {
					t.Errorf("cut=%d: revoked %s still decrypts", cut, nym)
				}
				continue
			}
			if err != nil || len(got) != 1 {
				t.Errorf("cut=%d: member %s decrypts %d subdocs (err=%v)", cut, nym, len(got), err)
			}
		}
	}
}

// TestSnapshotCompactsWAL asserts a quiet snapshot truncates the log and
// that recovery afterwards needs zero replays.
func TestSnapshotCompactsWAL(t *testing.T) {
	ts := newTestSystem(t, 0)
	dir := t.TempDir()
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	ts.pub.SetJournal(st)
	ts.join(t, "pn-0")
	if _, err := ts.pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(ts.pub); err != nil {
		t.Fatal(err)
	}
	st.Close()
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wal, walMagic) {
		t.Errorf("quiet snapshot left %d WAL bytes, want bare magic", len(wal))
	}

	st2, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rpub := ts.newPub(t, 0)
	rec, err := st2.Recover(rpub)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Restored || rec.Replayed != 0 || rec.SkippedRecords != 0 {
		t.Errorf("recovery after compaction: %+v", rec)
	}
	if rpub.SubscriberCount() != 1 {
		t.Errorf("restored %d subscribers, want 1", rpub.SubscriberCount())
	}
}

// TestSnapshotSkipsStaleWALPrefix covers the crash window between writing a
// snapshot and compacting the WAL: records at or below the snapshot sequence
// are skipped on recovery, newer ones replay. The un-compacted log is
// reconstructed by file surgery — re-prepending the pre-snapshot records the
// quiet snapshot removed — because the live path only leaves them behind
// when an append races the export.
func TestSnapshotSkipsStaleWALPrefix(t *testing.T) {
	ts := newTestSystem(t, 0)
	dir := t.TempDir()
	walPath := filepath.Join(dir, walName)
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	ts.pub.SetJournal(st)
	ts.join(t, "pn-0")
	ts.join(t, "pn-1")
	preSnapWAL, err := os.ReadFile(walPath) // records seq 1,2
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(ts.pub); err != nil { // snapshot seq 2, WAL compacted
		t.Fatal(err)
	}
	if err := ts.pub.RevokeSubscription("pn-1"); err != nil { // record seq 3
		t.Fatal(err)
	}
	st.Close()
	tail, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Un-compact: seq 1,2 back in front of seq 3 — exactly what the log
	// looks like when the crash hits between snapshot rename and truncate.
	if err := os.WriteFile(walPath, append(preSnapWAL, tail[len(walMagic):]...), 0o600); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	rpub := ts.newPub(t, 0)
	rec, err := st2.Recover(rpub)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SkippedRecords != 2 || rec.Replayed != 1 {
		t.Errorf("skipped=%d replayed=%d, want 2 skipped (snapshot-covered) and 1 replayed", rec.SkippedRecords, rec.Replayed)
	}
	if rpub.SubscriberCount() != 1 {
		t.Errorf("restored %d subscribers, want 1", rpub.SubscriberCount())
	}
}

func TestLoadOrCreateKeyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "key.hex")
	k1, err := LoadOrCreateKeyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := LoadOrCreateKeyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("reloaded key differs from generated key")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Errorf("key file mode %v, want 0600", fi.Mode())
	}
	if err := os.WriteFile(path, []byte("not hex"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrCreateKeyFile(path); err == nil {
		t.Error("malformed key file accepted")
	}
}

// TestAppendFailureLatchesBroken: when an append fails and the rollback
// cannot restore the file, the log must refuse further appends (a later
// success would write a record recovery has to reject) until a quiet
// snapshot compacts the file and repairs it.
func TestAppendFailureLatchesBroken(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	ev := pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: 1}
	if err := commit(s, ev); err != nil {
		t.Fatal(err)
	}
	s.wal.Close() // simulate an unusable file: write and rollback both fail
	if err := commit(s, ev); err == nil {
		t.Fatal("append on a dead file succeeded")
	}
	if !s.broken {
		t.Fatal("failed unrollbackable append did not latch the log broken")
	}
	if err := commit(s, ev); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Errorf("broken log accepted an append (err=%v)", err)
	}
}

// TestZeroFilledTailIsTorn covers the crash shape where the filesystem
// persists the WAL's extended size but not its data blocks: the tail reads
// as zeros, which must recover as a torn tail (crc32 of an empty body is 0,
// so the zeroed header "passes" the checksum — the all-zero remainder check
// is what keeps this from being misclassified as corruption).
func TestZeroFilledTailIsTorn(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := commit(s, pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	path := filepath.Join(dir, walName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, testKey())
	if err != nil {
		t.Fatalf("zero-filled tail bricked recovery: %v", err)
	}
	defer s2.Close()
	if !s2.stats.TruncatedTail || len(s2.pending) != 2 || s2.Seq() != 2 {
		t.Errorf("zero tail: truncated=%v pending=%d seq=%d, want true/2/2",
			s2.stats.TruncatedTail, len(s2.pending), s2.Seq())
	}
	// The log is usable again.
	if err := commit(s2, pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: 3}); err != nil {
		t.Errorf("append after zero-tail recovery: %v", err)
	}
}

// TestDirectoryLock: a second Open of a live state directory must refuse —
// two processes interleaving appends would destroy the log.
func TestDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, testKey()); err == nil {
		t.Fatal("second Open of a locked state directory succeeded")
	}
	s.Close()
	s2, err := Open(dir, testKey())
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

// TestRecoverAfterSetJournalRefused: the lifecycle guard — recovering
// through a store already installed as the journal would let a snapshot
// taken meanwhile compact WAL records that were never replayed.
func TestRecoverAfterSetJournalRefused(t *testing.T) {
	ts := newTestSystem(t, 0)
	st, err := Open(t.TempDir(), testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts.pub.SetJournal(st)
	if _, err := st.Recover(ts.pub); err == nil {
		t.Fatal("Recover after SetJournal accepted")
	}
}

// commit journals one event through the store's commit path and waits for it
// to be durable.
func commit(s *Store, ev pubsub.StateEvent) error {
	t, err := s.Begin([]pubsub.StateEvent{ev}, nil)
	if err != nil {
		return err
	}
	return t.Wait()
}
