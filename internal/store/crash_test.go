package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/pubsub"
	"ppcd/internal/sym"
	"ppcd/internal/wire"
)

// failAfterFlush is a journal whose commits reach the disk and then report
// failure: to the publisher, a crash between its record's fsync and Publish
// returning. The store it wraps orders the commits and their applies.
type failAfterFlush struct{ *Store }

func (f failAfterFlush) Begin(evs []pubsub.StateEvent, apply func()) (pubsub.CommitTicket, error) {
	t, err := f.Store.Begin(evs, apply)
	if err != nil {
		return nil, err
	}
	return failedTicket{t}, nil
}

type failedTicket struct{ pubsub.CommitTicket }

func (t failedTicket) Wait() error {
	if err := t.CommitTicket.Wait(); err != nil {
		return err
	}
	return errors.New("crashed after the flush")
}

// walCuts returns every record boundary of a WAL file and one offset inside
// each record (a torn append).
func walCuts(t *testing.T, wal []byte) []int {
	t.Helper()
	cuts := []int{len(walMagic)}
	for off := len(walMagic); off < len(wal); {
		n := 8 + int(binary.BigEndian.Uint32(wal[off:]))
		cuts = append(cuts, off+n/2, off+n)
		off += n
	}
	return cuts
}

// crashedCopy writes the snapshot files and the WAL cut at cut into a fresh
// directory and recovers it into a fresh incarnation; it returns the
// recovered publisher and the events that survived the cut.
func crashedCopy(t *testing.T, ts *testSystem, snap map[string][]byte, wal []byte, cut, groupSize int) (*pubsub.Publisher, []pubsub.StateEvent) {
	t.Helper()
	dir := t.TempDir()
	for name, b := range snap {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, walName), wal[:cut], 0o600); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatalf("cut=%d: reopen: %v", cut, err)
	}
	defer st.Close()
	pending := st.pending
	pub := ts.newPub(t, groupSize)
	if _, err := st.Recover(pub); err != nil {
		t.Fatalf("cut=%d: recover: %v", cut, err)
	}
	return pub, pending
}

// wrapMask is one (S_i, RekeyNonce) pair: the mask H(S_i ‖ nonce) a wrap adds
// to the configuration key.
type wrapMask struct {
	s     ff64.Elem
	nonce string
}

// maskKeys records, for every shard of every grouped configuration of b, the
// group key S_i one of the rows (row r holds CSS r+1, as loadRows writes
// them) derives from its sub-header, the rekey nonce, and the configuration
// key K that unwraps under it — K checked by decrypting the configuration's
// item. Two keys under one mask fail the test: their wraps would leak K − K'.
func maskKeys(t *testing.T, masks map[wrapMask]ff64.Elem, b *pubsub.Broadcast, rows int) {
	t.Helper()
	for _, ci := range b.Configs {
		g := ci.Grouped
		var ct []byte
		for _, it := range b.Items {
			if it.Config == ci.Key {
				ct = it.Ciphertext
			}
		}
		for i, sh := range g.Shards {
			found := false
			for r := 0; r < rows && !found; r++ {
				s, err := core.DeriveKey([]core.CSS{core.CSS(r + 1)}, sh.Hdr)
				if err != nil {
					continue
				}
				k := g.Unwrap(i, s)
				if _, err := sym.Decrypt(core.ExpandKey(k), ct); err != nil {
					continue
				}
				found = true
				m := wrapMask{s: s, nonce: string(g.RekeyNonce)}
				if prev, ok := masks[m]; ok && prev != k {
					t.Fatalf("epoch %d: shard %d's mask wraps two configuration keys", b.Epoch, i)
				}
				masks[m] = k
			}
			if !found {
				t.Fatalf("epoch %d: no row opens shard %d", b.Epoch, i)
			}
		}
	}
}

// opens reports whether row r's CSS unwraps a key that decrypts b's item from
// any shard.
func opens(b *pubsub.Broadcast, r int) bool {
	ci := b.Configs[0]
	for i, sh := range ci.Grouped.Shards {
		s, err := core.DeriveKey([]core.CSS{core.CSS(r + 1)}, sh.Hdr)
		if err != nil {
			continue
		}
		if _, err := sym.Decrypt(core.ExpandKey(ci.Grouped.Unwrap(i, s)), b.Items[0].Ciphertext); err == nil {
			return true
		}
	}
	return false
}

// TestCrashReusesNoWrapMask: at every cut of a WAL that holds revocations and
// publishes — the last of which crashed after its record was durable and
// before Publish returned — no (S_i, RekeyNonce) pair of the stopped
// incarnation's or the recovered one's broadcasts appears under two
// configuration keys, and a leaver whose revocation survived the cut derives
// a wrong key from every shard at the first post-crash epoch.
func TestCrashReusesNoWrapMask(t *testing.T) {
	const rows, groupSize = 12, 4
	ts := newTestSystem(t, groupSize)
	dir := t.TempDir()
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(ts.pub); err != nil {
		t.Fatal(err)
	}
	loadRows(t, ts.pub, rows)
	ts.pub.SetJournal(st)
	var live []*pubsub.Broadcast
	publish := func() {
		b, err := ts.pub.Publish(ts.doc)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, b)
	}
	publish()
	if err := st.Snapshot(ts.pub); err != nil {
		t.Fatal(err)
	}
	leavers := []int{2, 7}
	if err := ts.pub.RevokeSubscription(fmt.Sprintf("pn-%05d", leavers[0])); err != nil {
		t.Fatal(err)
	}
	publish()
	if err := ts.pub.RevokeSubscription(fmt.Sprintf("pn-%05d", leavers[1])); err != nil {
		t.Fatal(err)
	}
	ts.pub.SetJournal(failAfterFlush{st})
	if _, err := ts.pub.Publish(ts.doc); err == nil {
		t.Fatal("a publish whose journal failed after the flush returned a broadcast")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	snap := readSnapshotFiles(t, dir)

	masks := make(map[wrapMask]ff64.Elem)
	for _, b := range live {
		maskKeys(t, masks, b, rows)
	}
	for _, cut := range walCuts(t, wal) {
		pub, pending := crashedCopy(t, ts, snap, wal, cut, groupSize)
		for _, b := range pub.LastBroadcasts() {
			maskKeys(t, masks, b, rows)
		}
		first, err := pub.Publish(ts.doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.RevokeSubscription("pn-00011"); err != nil {
			t.Fatal(err)
		}
		second, err := pub.Publish(ts.doc)
		if err != nil {
			t.Fatal(err)
		}
		maskKeys(t, masks, first, rows)
		maskKeys(t, masks, second, rows)
		for _, ev := range pending {
			if ev.Kind != pubsub.StateEventRevokeSubscription {
				continue
			}
			var r int
			if _, err := fmt.Sscanf(ev.Nym, "pn-%05d", &r); err != nil {
				t.Fatal(err)
			}
			if opens(first, r) {
				t.Errorf("cut=%d: leaver %s opens the first post-crash epoch", cut, ev.Nym)
			}
		}
	}
}

// TestWALv1Refused: a log of a retired format — publish records without an
// outcome, with outcomes embedding version-5 delta frames, with the alias
// map, or with text signatures — has no reader and is refused by name.
func TestWALv1Refused(t *testing.T) {
	for _, magic := range []string{"PPCDWL1", "PPCDWL2", "PPCDWL3", "PPCDWL4"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), []byte(magic), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, testKey()); !errors.Is(err, ErrCorrupt) || !bytes.Contains([]byte(err.Error()), []byte(magic)) {
			t.Errorf("%s log: %v, want ErrCorrupt naming the format", magic, err)
		}
	}
}

// TestPublishEventCodec: a live publish record round-trips through its
// encoding byte for byte, its delta as the frame the hub ships; a cut or an
// extra byte is refused, and so is a frame of another document or epoch than
// its record's.
func TestPublishEventCodec(t *testing.T) {
	cold, churn := livePublishEvents(t)
	for _, ev := range []pubsub.StateEvent{cold, churn} {
		raw := appendEvent(nil, ev)
		got, err := decodeEvent(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(appendEvent(nil, got), raw) {
			t.Error("decoded publish record does not re-encode to its bytes")
		}
		o, want := got.Outcome, ev.Outcome
		if !reflect.DeepEqual(o.Digests, want.Digests) || !reflect.DeepEqual(o.Configs, want.Configs) || !reflect.DeepEqual(o.Shards, want.Shards) {
			t.Error("decoded outcome differs from the journaled one")
		}
		if !bytes.Equal(wire.MarshalDeltaFrame(o.Delta), wire.MarshalDeltaFrame(want.Delta)) {
			t.Error("decoded delta differs from the journaled one")
		}
		for cut := 0; cut < len(raw); cut += 7 {
			if _, err := decodeEvent(raw[:cut]); err == nil {
				t.Fatalf("publish record cut at %d of %d bytes decoded", cut, len(raw))
			}
		}
		if _, err := decodeEvent(append(raw, 0)); err == nil {
			t.Error("publish record with a trailing byte decoded")
		}
	}
	for name, mutate := range map[string]func(*pubsub.StateEvent){
		"another document": func(ev *pubsub.StateEvent) { ev.Doc = "other" },
		"another epoch":    func(ev *pubsub.StateEvent) { ev.Epoch++ },
	} {
		ev := churn
		mutate(&ev)
		if _, err := decodeEvent(appendEvent(nil, ev)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestPublishRecordSize pins what a publish record costs at the
// durable-restart shape (50k rows, shards of 128): after 8 leaves the sealed
// record is at most twice the delta frame the hub ships for the epoch, and a
// cold publish's record — every shard shipped — stays far below the record
// limit.
func TestPublishRecordSize(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 391 shards")
	}
	const rows, groupSize, leaves = 50000, 128, 8
	ts := newTestSystem(t, groupSize)
	loadRows(t, ts.pub, rows)
	st, err := Open(t.TempDir(), testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var log eventLog
	ts.pub.SetJournal(&log)
	prev, err := ts.pub.Publish(ts.doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < leaves; i++ {
		if err := ts.pub.RevokeSubscription(fmt.Sprintf("pn-%05d", i*6151)); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := ts.pub.Publish(ts.doc)
	if err != nil {
		t.Fatal(err)
	}
	seal := func(ev pubsub.StateEvent) int {
		plain, _, err := record(ev)
		if err != nil {
			t.Fatal(err)
		}
		sealed, err := st.seal(1, plain)
		if err != nil {
			t.Fatal(err)
		}
		return len(sealed)
	}
	d, err := pubsub.Diff(prev, cur)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(wire.MarshalDeltaFrame(d))
	evs := log.evs
	churn, cold := seal(evs[len(evs)-1]), seal(evs[0])
	t.Logf("publish record after %d leaves: %d B sealed, delta frame %d B; cold record %d B (%.1f B per row)",
		leaves, churn, frame, cold, float64(cold)/rows)
	if evs[len(evs)-1].Outcome == nil || len(evs[len(evs)-1].Outcome.Shards) != leaves {
		t.Fatalf("the churn record does not carry the %d re-solved shards", leaves)
	}
	if churn > 2*frame {
		t.Errorf("publish record of %d B exceeds twice the %d B delta frame", churn, frame)
	}
	if cold > maxWALRecord/64 {
		t.Errorf("cold publish record of %d B at %d rows", cold, rows)
	}
}

// TestOversizedPublishRecordDropsItsOutcome: a publish whose outcome would
// take its record past maxWALRecord is journaled as its epoch alone, decodes
// as one and is counted by Store.OutcomesDropped; any other event that large
// is refused.
func TestOversizedPublishRecordDropsItsOutcome(t *testing.T) {
	if testing.Short() {
		t.Skip("encodes a 64 MiB outcome")
	}
	item := pubsub.Item{Subdoc: "s", Config: "acp0", Ciphertext: make([]byte, maxWALRecord), Rev: 7}
	ev := pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: 7, Outcome: &pubsub.PublishOutcome{
		Delta: &pubsub.BroadcastDelta{DocName: "doc", Epoch: 7, Items: []pubsub.Item{item}},
	}}
	plain, dropped, err := record(ev)
	if err != nil {
		t.Fatal(err)
	}
	if !dropped {
		t.Error("record did not report the dropped outcome")
	}
	got, err := decodeEvent(plain[8:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != pubsub.StateEventPublish || got.Doc != "doc" || got.Epoch != 7 || got.Outcome != nil {
		t.Errorf("oversized publish record decoded to %+v, want epoch 7 of doc without an outcome", got)
	}
	if len(plain)+sealOverhead > 64 {
		t.Errorf("the epoch-alone record takes %d sealed bytes", len(plain)+sealOverhead)
	}
	huge := pubsub.StateEvent{Kind: pubsub.StateEventRevokeSubscription, Nym: string(item.Ciphertext)}
	if _, _, err := record(huge); err == nil {
		t.Error("a revocation past the WAL record limit was encoded")
	}

	st, err := Open(t.TempDir(), testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	small := pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: 6, Outcome: &pubsub.PublishOutcome{
		Delta: &pubsub.BroadcastDelta{DocName: "doc", Epoch: 6},
	}}
	tk, err := st.Begin([]pubsub.StateEvent{small, ev}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Begin([]pubsub.StateEvent{huge}, nil); err == nil {
		t.Error("the store admitted a revocation past the WAL record limit")
	}
	if got := st.OutcomesDropped(); got != 1 {
		t.Errorf("OutcomesDropped = %d after one oversized and one small publish, want 1", got)
	}
}
