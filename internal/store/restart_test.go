package store

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/core/coretest"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

// loadRows registers n synthetic rows (pn-00000 …, one CSS for attr0 each)
// the way WAL replay would: no OCBE, so tables of benchmark size load in
// milliseconds. Row i lands in slot i of an empty table.
func loadRows(t testing.TB, pub *pubsub.Publisher, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		ev := pubsub.StateEvent{Kind: pubsub.StateEventRegister, Nym: fmt.Sprintf("pn-%05d", i),
			Cells: map[string]core.CSS{"attr0 >= 1": core.CSS(i + 1)}}
		if err := pub.ApplyStateEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// stoppedStore leaves a directory holding the snapshot of a published table
// of n rows (shards of groupSize, segSlots slots per table segment), as a
// clean stop would, and returns the system it was written by.
func stoppedStore(t testing.TB, dir string, n, groupSize, segSlots int) *testSystem {
	t.Helper()
	ts := newTestSystem(t, groupSize)
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	st.SetSegmentSlots(segSlots)
	if _, err := st.Recover(ts.pub); err != nil {
		t.Fatal(err)
	}
	loadRows(t, ts.pub, n)
	ts.pub.SetJournal(st)
	if _, err := ts.pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(ts.pub); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return ts
}

// restart opens dir and recovers it into a fresh publisher incarnation.
func restart(t testing.TB, ts *testSystem, dir string, groupSize, segSlots int) (*Store, *pubsub.Publisher, RecoveryStats) {
	t.Helper()
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	st.SetSegmentSlots(segSlots)
	pub := ts.newPub(t, groupSize)
	stats, err := st.Recover(pub)
	if err != nil {
		t.Fatal(err)
	}
	pub.SetJournal(st)
	return st, pub, stats
}

// tableFiles maps table-segment index → file name in the installed manifest.
func tableFiles(st *Store) map[int]string {
	out := make(map[int]string)
	for _, f := range st.man.files {
		if f.kind == segKindTable {
			out[f.index] = f.name
		}
	}
	return out
}

// TestRestartResumesGroupsAndSegments pins what survives a restart beyond the
// bytes: after a clean stop the first publish solves nothing and scans
// nothing; after a crash the WAL tail advances the restored group state
// through ordinary churn — exactly the touched shards re-solve, exactly the
// touched table segments are rewritten by the next snapshot, which is
// incremental although no snapshot preceded it in this process.
func TestRestartResumesGroupsAndSegments(t *testing.T) {
	const rows, groupSize, segSlots = 40, 4, 8
	dir := t.TempDir()
	ts := stoppedStore(t, dir, rows, groupSize, segSlots)

	// Clean restart.
	st, pub, stats := restart(t, ts, dir, groupSize, segSlots)
	if !stats.Restored || stats.Replayed != 0 {
		t.Fatalf("clean recovery stats = %+v", stats)
	}
	if _, err := pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if s := pub.Stats(); s.Solves != 0 || s.FullRegroups != 0 {
		t.Fatalf("first publish after a clean stop: %d solves, %d full regroups; want 0 and 0", s.Solves, s.FullRegroups)
	}
	// Churn that reaches only the WAL: rows 3 and 17 sit in shards 0 and 4
	// (sorted pseudonyms fill shards of 4 in order) and in table segments 0
	// and 2. Close without a snapshot is the crash.
	for _, i := range []int{3, 17} {
		if err := pub.RevokeSubscription(fmt.Sprintf("pn-%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash restart.
	st, pub, stats = restart(t, ts, dir, groupSize, segSlots)
	defer st.Close()
	if stats.Replayed < 2 {
		t.Fatalf("crash recovery replayed %d events, want the two revocations", stats.Replayed)
	}
	before := tableFiles(st)
	if _, err := pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if s := pub.Stats(); s.Solves != 2 || s.FullRegroups != 0 {
		t.Errorf("first publish after the crash: %d solves, %d full regroups; want the 2 touched shards and 0", s.Solves, s.FullRegroups)
	}
	if err := st.Snapshot(pub); err != nil {
		t.Fatal(err)
	}
	snap := st.LastSnapshotStats()
	if snap.Full || snap.DirtySegments >= snap.TotalSegments {
		t.Errorf("first snapshot after the restart: %+v; want incremental", snap)
	}
	var rewritten []int
	for i, name := range tableFiles(st) {
		if before[i] != name {
			rewritten = append(rewritten, i)
		}
	}
	if sort.Ints(rewritten); !slices.Equal(rewritten, []int{0, 2}) {
		t.Errorf("table segments %v rewritten, want exactly 0 and 2", rewritten)
	}
	if got := countSegFiles(t, dir); got != snap.TotalSegments {
		t.Errorf("%d segment files on disk, manifest references %d", got, snap.TotalSegments)
	}

	// And the incremental layout recovers.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, pub, _ = restart(t, ts, dir, groupSize, segSlots)
	defer st.Close()
	if got := pub.SubscriberCount(); got != rows-2 {
		t.Errorf("%d rows after the second restart, want %d", got, rows-2)
	}
	if _, err := pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if s := pub.Stats(); s.Solves != 0 || s.FullRegroups != 0 {
		t.Errorf("publish from the incremental layout: %d solves, %d full regroups; want 0 and 0", s.Solves, s.FullRegroups)
	}
}

// TestRestartKeepsSeedsAndNoNonces: a cached shard header is stored as X and
// the seed of its nonce run and comes back as exactly that — recovery expands
// no seed and the restored headers hold no nonce — and the frames of the
// restarted publisher, the first it publishes included, are the bytes the
// stopped one would have sent.
func TestRestartKeepsSeedsAndNoNonces(t *testing.T) {
	const rows, groupSize = 4000, 128
	dir := t.TempDir()
	ts := stoppedStore(t, dir, rows, groupSize, 0)
	var before [][]byte
	for _, b := range ts.pub.LastBroadcasts() {
		before = append(before, wire.MarshalSnapshotFrame(b))
	}

	expanded := core.NonceExpansions()
	st, pub, _ := restart(t, ts, dir, groupSize, 0)
	defer st.Close()
	if got := core.NonceExpansions() - expanded; got != 0 {
		t.Errorf("recovery expanded %d nonce seeds", got)
	}
	after := pub.LastBroadcasts()
	if len(after) != len(before) || len(after) == 0 {
		t.Fatalf("%d diff bases after the restart, %d before", len(after), len(before))
	}
	if n := coretest.ListedNonces(after); n != 0 {
		t.Errorf("the restored diff bases hold %d nonces", n)
	}
	for i, b := range after {
		if !bytes.Equal(wire.MarshalSnapshotFrame(b), before[i]) {
			t.Errorf("snapshot frame of %q differs across the restart", b.DocName)
		}
		for _, ci := range b.Configs {
			for _, sh := range ci.Grouped.Shards {
				if !sh.Hdr.Seeded() {
					t.Fatalf("restored shard header of N=%d lost its seed", sh.Hdr.N())
				}
			}
		}
	}
	// The restarted publisher's first publish re-solves and re-keys nothing, so
	// its frame is the one the stopped publisher would have sent next: its last
	// but for the epoch stamp and the freshly sealed items.
	first, err := pub.Publish(ts.doc)
	if err != nil {
		t.Fatal(err)
	}
	if s := pub.Stats(); s.Solves != 0 {
		t.Errorf("first publish after the restart solved %d shards", s.Solves)
	}
	unstamped := func(b *pubsub.Broadcast) []byte {
		c := *b
		c.Epoch, c.Items = 0, nil
		return wire.MarshalSnapshotFrame(&c)
	}
	if !bytes.Equal(unstamped(first), unstamped(ts.pub.LastBroadcasts()[0])) {
		t.Error("the restarted publisher's first frame is not what the stopped one would have sent")
	}
	if n := coretest.ListedNonces(first); n != 0 {
		t.Errorf("the first broadcast after the restart holds %d nonces", n)
	}
}

// TestRestartDroppedConditionForcesFullSnapshot: a publisher restarted with
// fewer conditions than the segments hold must not carry those segments
// forward — its first snapshot rewrites everything.
func TestRestartDroppedConditionForcesFullSnapshot(t *testing.T) {
	ts := newTestSystem(t, 4)
	acps := make([]*policy.ACP, 2)
	for i := range acps {
		var err error
		if acps[i], err = policy.New(fmt.Sprintf("acp%d", i), fmt.Sprintf("attr%d >= 1", i), "doc", "sd0"); err != nil {
			t.Fatal(err)
		}
	}
	wide, err := pubsub.NewPublisher(ts.params, ts.mgr.PublicKey(), acps, pubsub.Options{Ell: 4, GroupSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	st.SetSegmentSlots(8)
	for i := 0; i < 20; i++ {
		ev := pubsub.StateEvent{Kind: pubsub.StateEventRegister, Nym: fmt.Sprintf("pn-%05d", i),
			Cells: map[string]core.CSS{"attr0 >= 1": core.CSS(i + 1), "attr1 >= 1": core.CSS(i + 100)}}
		if err := wide.ApplyStateEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wide.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(wide); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, pub, _ := restart(t, ts, dir, 4, 8) // acp0 / attr0 only
	defer st.Close()
	if _, err := pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if s := pub.Stats(); s.FullRegroups != 1 {
		t.Errorf("%d full regroups after a dropped condition, want 1", s.FullRegroups)
	}
	if err := st.Snapshot(pub); err != nil {
		t.Fatal(err)
	}
	if snap := st.LastSnapshotStats(); !snap.Full || snap.DirtySegments != snap.TotalSegments {
		t.Errorf("snapshot after a dropped condition: %+v; want full", snap)
	}
}

// TestRecoveryAllocations bounds what a recovery allocates: columns are copied
// into one pre-sized table, every pseudonym of a segment is a substring of one
// blob, group rows are windows of one block per shard and a header's nonces of
// one buffer — a handful of allocations per segment and per shard, none per
// row (the v1 decoder made 6 per row).
func TestRecoveryAllocations(t *testing.T) {
	const rows, groupSize = 20000, 128
	dir := t.TempDir()
	ts := stoppedStore(t, dir, rows, groupSize, 0)
	allocs := testing.AllocsPerRun(3, func() {
		st, _, stats := restart(t, ts, dir, groupSize, 0)
		if stats.Segments == 0 {
			t.Fatal("nothing recovered")
		}
		st.Close()
	})
	if perRow := allocs / rows; perRow > 0.3 {
		t.Errorf("recovery of %d rows made %.0f allocations, %.2f per row; want ≤ 0.3", rows, allocs, perRow)
	}
}

// benchRows is the durable-restart shape of the end-to-end benchmark.
const benchRows, benchGroupSize = 50000, 128

// BenchmarkRecoverSegments times Open + Recover of a 50k-row snapshot (13
// table segments, 32 cache buckets of 391 shard headers); MB/s is decrypted
// payload per second.
func BenchmarkRecoverSegments(b *testing.B) {
	dir := b.TempDir()
	ts := stoppedStore(b, dir, benchRows, benchGroupSize, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, _, stats := restart(b, ts, dir, benchGroupSize, 0)
		b.SetBytes(int64(stats.SnapshotBytes))
		st.Close()
	}
}

// BenchmarkSnapshotSegments times a full snapshot of the same state: export,
// seal, write and fsync of every segment plus the manifest; MB/s is sealed
// bytes written per second.
func BenchmarkSnapshotSegments(b *testing.B) {
	dir := b.TempDir()
	ts := stoppedStore(b, dir, benchRows, benchGroupSize, 0)
	st, pub, _ := restart(b, ts, dir, benchGroupSize, 0)
	defer st.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.base = nil // every segment dirty
		if err := st.Snapshot(pub); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(st.LastSnapshotStats().BytesWritten)
	}
}
