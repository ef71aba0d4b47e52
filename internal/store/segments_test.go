package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/pubsub"
	"ppcd/internal/sym"
)

// countSegFiles returns how many segment files exist in dir.
func countSegFiles(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".ppcd") {
			n++
		}
	}
	return n
}

// cloneDir copies every regular file except the lock into a fresh directory —
// a crashed process's disk image, reopenable while the original store still
// holds its flock.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() == lockName {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestIncrementalSnapshotOnChurn is the O(churn) property at test scale: a
// post-churn snapshot must rewrite only the dirty segments and strictly
// fewer bytes than the full snapshot it follows, and recovery from the
// incremental layout must restore the exact membership with a zero-solve
// steady republish.
func TestIncrementalSnapshotOnChurn(t *testing.T) {
	ts := newTestSystem(t, 4)
	dir := t.TempDir()
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	st.SetSegmentSlots(4) // several table segments even at 12 rows
	if _, err := st.Recover(ts.pub); err != nil {
		t.Fatal(err)
	}
	ts.pub.SetJournal(st)

	nyms := make([]string, 12)
	for i := range nyms {
		nyms[i] = fmt.Sprintf("pn-%d", i)
		ts.join(t, nyms[i])
	}
	if _, err := ts.pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if n := st.WALRecordsSinceSnapshot(); n == 0 {
		t.Fatal("WALRecordsSinceSnapshot = 0 before any snapshot")
	}
	if err := st.Snapshot(ts.pub); err != nil {
		t.Fatal(err)
	}
	full := st.LastSnapshotStats()
	if !full.Full || full.DirtySegments != full.TotalSegments {
		t.Fatalf("first snapshot not full: %+v", full)
	}
	if n := st.WALRecordsSinceSnapshot(); n != 0 {
		t.Fatalf("WALRecordsSinceSnapshot = %d after quiet snapshot", n)
	}

	// Churn: two leavers, one joiner, one rekeying publish.
	if err := ts.pub.RevokeSubscription(nyms[2]); err != nil {
		t.Fatal(err)
	}
	if err := ts.pub.RevokeSubscription(nyms[7]); err != nil {
		t.Fatal(err)
	}
	ts.join(t, "pn-late")
	if _, err := ts.pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(ts.pub); err != nil {
		t.Fatal(err)
	}
	inc := st.LastSnapshotStats()
	if inc.Full {
		t.Fatalf("post-churn snapshot was full: %+v", inc)
	}
	if inc.DirtySegments >= inc.TotalSegments {
		t.Fatalf("post-churn snapshot rewrote %d of %d segments", inc.DirtySegments, inc.TotalSegments)
	}
	if inc.BytesWritten >= full.BytesWritten {
		t.Fatalf("post-churn snapshot wrote %dB, full wrote %dB", inc.BytesWritten, full.BytesWritten)
	}
	// Carried-over segment files plus rewritten ones, nothing else on disk.
	if got := countSegFiles(t, dir); got != inc.TotalSegments {
		t.Fatalf("%d segment files on disk, manifest references %d", got, inc.TotalSegments)
	}
	st.Close()

	rst, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	rpub := ts.newPub(t, 4)
	stats, err := rst.Recover(rpub)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Restored || stats.Segments == 0 || stats.Replayed != 0 || stats.SkippedRecords != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	rst.Close()

	before := rpub.Stats()
	b, err := rpub.Publish(ts.doc)
	if err != nil {
		t.Fatal(err)
	}
	if solves := rpub.Stats().Solves - before.Solves; solves != 0 {
		t.Errorf("post-recovery publish performed %d solves", solves)
	}
	for nym, sub := range ts.subs {
		got, err := sub.Decrypt(b)
		if nym == nyms[2] || nym == nyms[7] {
			if len(got) != 0 {
				t.Errorf("revoked %s still decrypts after incremental recovery", nym)
			}
			continue
		}
		if err != nil || len(got) != 1 {
			t.Errorf("%s cannot decrypt after incremental recovery: %v", nym, err)
		}
	}
}

// TestSnapshotCrashPoints kills the snapshot write protocol at each stage —
// mid-segment-write, after the manifest temp file, and right after the
// rename — and requires recovery from the resulting disk image to restore
// the exact pre-crash state: the previous snapshot plus the full WAL before
// the rename, the new snapshot after it. Leftover files must be garbage
// collected on reopen, and the post-rename image must need zero solves on
// its first publish (its snapshot covers all churn).
func TestSnapshotCrashPoints(t *testing.T) {
	for _, stage := range []string{"segment:", "manifest-tmp", "manifest-renamed"} {
		t.Run(strings.TrimSuffix(stage, ":"), func(t *testing.T) {
			ts := newTestSystem(t, 4)
			dir := t.TempDir()
			st, err := Open(dir, testKey())
			if err != nil {
				t.Fatal(err)
			}
			st.SetSegmentSlots(4)
			if _, err := st.Recover(ts.pub); err != nil {
				t.Fatal(err)
			}
			ts.pub.SetJournal(st)

			nyms := make([]string, 6)
			for i := range nyms {
				nyms[i] = fmt.Sprintf("pn-%d", i)
				ts.join(t, nyms[i])
			}
			if _, err := ts.pub.Publish(ts.doc); err != nil {
				t.Fatal(err)
			}
			if err := st.Snapshot(ts.pub); err != nil {
				t.Fatal(err)
			}
			// Churn recorded in the WAL tail, then a crashing snapshot.
			if err := ts.pub.RevokeSubscription(nyms[1]); err != nil {
				t.Fatal(err)
			}
			if _, err := ts.pub.Publish(ts.doc); err != nil {
				t.Fatal(err)
			}
			st.crashPoint = func(s string) bool { return strings.HasPrefix(s, stage) }
			if err := st.Snapshot(ts.pub); !errors.Is(err, errSnapCrash) {
				t.Fatalf("crashing snapshot: err = %v, want errSnapCrash", err)
			}
			st.crashPoint = nil
			crashImg := cloneDir(t, dir)

			rst, err := Open(crashImg, testKey())
			if err != nil {
				t.Fatalf("reopen after %s crash: %v", stage, err)
			}
			if got := countSegFiles(t, crashImg); got != len(rst.man.files) {
				t.Errorf("%d segment files survive GC, manifest references %d", got, len(rst.man.files))
			}
			renamed := stage == "manifest-renamed"
			if renamed && len(rst.pending) != 0 {
				t.Errorf("installed snapshot leaves %d WAL events to replay (want 0, covered)", len(rst.pending))
			}
			if !renamed && len(rst.pending) == 0 {
				t.Error("pre-rename crash must leave the churn in the WAL tail")
			}
			rpub := ts.newPub(t, 4)
			if _, err := rst.Recover(rpub); err != nil {
				t.Fatalf("recover after %s crash: %v", stage, err)
			}
			rst.Close()

			before := rpub.Stats()
			b, err := rpub.Publish(ts.doc)
			if err != nil {
				t.Fatal(err)
			}
			if solves := rpub.Stats().Solves - before.Solves; renamed && solves != 0 {
				t.Errorf("post-rename image needed %d solves on first publish", solves)
			}
			if b.Epoch <= ts.pub.Epoch()-1 && b.Epoch <= 2 {
				t.Errorf("epoch %d not ahead after recovery", b.Epoch)
			}
			for nym, sub := range ts.subs {
				got, err := sub.Decrypt(b)
				if nym == nyms[1] {
					if len(got) != 0 {
						t.Errorf("stage %s: revoked %s still decrypts", stage, nym)
					}
					continue
				}
				if err != nil || len(got) != 1 {
					t.Errorf("stage %s: %s cannot decrypt after crash recovery: %v", stage, nym, err)
				}
			}

			// The live store survives its aborted snapshot too: the next one
			// is forced full and repairs everything.
			if err := st.Snapshot(ts.pub); err != nil {
				t.Fatalf("snapshot after aborted snapshot: %v", err)
			}
			if !st.LastSnapshotStats().Full {
				t.Error("snapshot after an aborted install was not full")
			}
			st.Close()
		})
	}
}

// TestSegmentedCorruptionDetected extends the wrong-key / bit-flip /
// truncation corpus to the manifest and segment files: every tampered image
// must fail loudly with ErrCorrupt, never restore garbage.
func TestSegmentedCorruptionDetected(t *testing.T) {
	ts := newTestSystem(t, 4)
	dir := t.TempDir()
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	st.SetSegmentSlots(4)
	if _, err := st.Recover(ts.pub); err != nil {
		t.Fatal(err)
	}
	ts.pub.SetJournal(st)
	for i := 0; i < 6; i++ {
		ts.join(t, fmt.Sprintf("pn-%d", i))
	}
	if _, err := ts.pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(ts.pub); err != nil {
		t.Fatal(err)
	}
	st.Close()

	var segNames []string
	for _, e := range mustReadDir(t, dir) {
		if strings.HasPrefix(e, "seg-") {
			segNames = append(segNames, e)
		}
	}
	if len(segNames) < 2 {
		t.Fatalf("want ≥2 segment files, have %v", segNames)
	}

	// openOrRecover drives the full recovery path; corruption may surface at
	// either step.
	openOrRecover := func(d string, key [sym.KeySize]byte) error {
		s, err := Open(d, key)
		if err != nil {
			return err
		}
		defer s.Close()
		_, err = s.Recover(ts.newPub(t, 4))
		return err
	}

	t.Run("wrong-key", func(t *testing.T) {
		if err := openOrRecover(cloneDir(t, dir), DeriveKey([]byte("not-the-key"))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("manifest-bit-flip", func(t *testing.T) {
		d := cloneDir(t, dir)
		flipByte(t, filepath.Join(d, manifestName), len(manMagic)+11)
		if err := openOrRecover(d, testKey()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("manifest-truncated", func(t *testing.T) {
		d := cloneDir(t, dir)
		truncateFile(t, filepath.Join(d, manifestName), 0.5)
		if err := openOrRecover(d, testKey()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("segment-bit-flip", func(t *testing.T) {
		d := cloneDir(t, dir)
		flipByte(t, filepath.Join(d, segNames[0]), len(segMagic)+3)
		if err := openOrRecover(d, testKey()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("segment-truncated", func(t *testing.T) {
		d := cloneDir(t, dir)
		truncateFile(t, filepath.Join(d, segNames[0]), 0.5)
		if err := openOrRecover(d, testKey()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("segment-oversized", func(t *testing.T) {
		// The authentic bytes with a tail appended: refused on size alone.
		d := cloneDir(t, dir)
		f, err := os.OpenFile(filepath.Join(d, segNames[0]), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 1<<20)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := openOrRecover(d, testKey()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("segment-missing", func(t *testing.T) {
		d := cloneDir(t, dir)
		if err := os.Remove(filepath.Join(d, segNames[0])); err != nil {
			t.Fatal(err)
		}
		if err := openOrRecover(d, testKey()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("segments-swapped", func(t *testing.T) {
		// Two authentic files exchanged under each other's names: the
		// per-file manifest digests must refuse the swap.
		d := cloneDir(t, dir)
		a, b := filepath.Join(d, segNames[0]), filepath.Join(d, segNames[1])
		ab, err := os.ReadFile(a)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(a, bb, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(b, ab, 0o600); err != nil {
			t.Fatal(err)
		}
		if err := openOrRecover(d, testKey()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("err = %v, want ErrCorrupt", err)
		}
	})
}

func mustReadDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(b) {
		off = len(b) - 1
	}
	b[off] ^= 0x40
	if err := os.WriteFile(path, b, 0o600); err != nil {
		t.Fatal(err)
	}
}

func truncateFile(t *testing.T, path string, frac float64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(float64(fi.Size())*frac)); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCommitOrdering exercises the pipelined group commit under
// concurrent mutators (run with -race in CI): nothing outside the store
// orders the admits — the publisher takes no lock around Begin — and flushes
// coalesce freely. The invariants: applies run in the order the reopened log
// replays, every ticket resolves only after its record is durable and
// applied, and each writer's commits keep their order.
func TestConcurrentCommitOrdering(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 20
	applied := make([]string, 0, writers*perWriter) // flusher-only writes

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				nym := fmt.Sprintf("pn-%d-%d", w, i)
				ev := pubsub.StateEvent{Kind: pubsub.StateEventRegister, Nym: nym,
					Cells: map[string]core.CSS{"attr0 >= 1": core.CSS(i)}}
				var done bool
				tk, err := st.Begin([]pubsub.StateEvent{ev}, func() {
					applied = append(applied, nym)
					done = true
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := tk.Wait(); err != nil {
					t.Error(err)
					return
				}
				if !done {
					t.Errorf("ticket of %s resolved before its apply", nym)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(applied) != writers*perWriter {
		t.Fatalf("%d applies for %d commits", len(applied), writers*perWriter)
	}
	next := make([]int, writers) // each writer's next commit
	for _, nym := range applied {
		var w, i int
		if _, err := fmt.Sscanf(nym, "pn-%d-%d", &w, &i); err != nil {
			t.Fatal(err)
		}
		if i != next[w] {
			t.Fatalf("writer %d's commit %d applied before its commit %d", w, i, next[w])
		}
		next[w]++
	}

	rst, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	if rst.seq != uint64(writers*perWriter) {
		t.Fatalf("recovered seq = %d, want %d", rst.seq, writers*perWriter)
	}
	if len(rst.pending) != len(applied) {
		t.Fatalf("recovered %d events, applied %d", len(rst.pending), len(applied))
	}
	for i, ev := range rst.pending {
		if ev.Nym != applied[i] {
			t.Fatalf("replay order diverges from apply order at %d: %s != %s", i, ev.Nym, applied[i])
		}
	}
}
