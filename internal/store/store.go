// Package store is the publisher's durable-state subsystem: an append-only
// write-ahead log of registration/revocation/publish events plus periodically
// compacted segmented snapshots, everything encrypted at rest with AEAD
// (internal/sym, AES-256-GCM) under an operator key.
//
// The paper requires table T to be protected (§V-B) and makes rekeying a pure
// broadcast operation (§V-C); both properties are only worth anything if they
// survive a process restart. A publisher recovered through this package keeps
// its table, its sticky group assignments, its epoch counter and its
// incarnation generation, so the first post-restart publish is a zero-solve
// steady-state publish and streaming subscribers catch up with small deltas
// instead of re-downloading snapshots — after a crash as after a clean stop,
// because a publish's WAL record carries what the publish solved.
//
// On-disk layout inside the state directory (created mode 0700):
//
//	manifest.ppcd      "PPCDMF1" ‖ AEAD( manifest body )
//	seg-<k><i>-<r>.ppcd "PPCDSG1" ‖ AEAD( kind:u8 ‖ index:u32 ‖ payload )
//	wal.ppcd           "PPCDWL5" ‖ records…
//
// A snapshot is SEGMENTED: the publisher state splits into one meta segment
// (kind 'm'), table segments (kind 't') covering contiguous columnar slot
// ranges, and cache segments (kind 'c') holding hash-bucketed engine cache
// entries. The manifest binds the set: for every segment file it records the
// name, size and SHA-256 of the sealed bytes, plus the WAL sequence the
// snapshot covers. Installing a snapshot is one atomic manifest rename;
// segment files are never overwritten (each rewrite gets a fresh random name
// suffix), so a crash at ANY point of the write protocol leaves the previous
// manifest and every file it references intact:
//
//	crash window                    next Open sees
//	─────────────────────────────   ─────────────────────────────────────────
//	mid/after segment writes        old manifest + orphan seg files → GC'd
//	mid manifest tmp write          old manifest + manifest.ppcd.tmp → removed
//	after rename, before WAL trunc  new manifest + stale WAL prefix → skipped
//	                                by sequence on replay
//
// A snapshot after churn rewrites only the segments whose rows or cache
// buckets changed (O(churn) bytes, not O(state)) — also across a restart:
// recovery decodes every table segment back into the slots it was written
// from, so the manifest it recovered from is the base of the next snapshot.
// Dirty segments are sealed, written and fsynced in parallel, and recovery
// unseals and decodes them in parallel, on one worker pool.
//
// Every event reaches the log through Begin (pubsub.Journal), the one commit
// path: concurrent commits coalesce into one write+fsync, a commit's apply
// runs only once its records are durable, and a registration batch is one
// commit, all or nothing. Each WAL record is
//
//	len:u32 ‖ crc32(sealed):u32 ‖ sealed
//	sealed = AEAD( seq:u64 ‖ event )
//
// All integers are big-endian. An event is a registration, a revocation or a
// publish; a publish is its document and epoch, then its outcome
// (pubsub.PublishOutcome: the broadcast as a delta against the document's
// previous diff base, encoded as the delta stream frame the hub ships, then
// the plaintext digests and the keys, shard IDs and row signatures of what
// its rekey session solved —
// appendOutcome), so that replay restores the diff base and the engine cache
// as of that epoch. A record is encoded before the log's lock is taken; only
// its sequence number and seal are added under it. A cold publish's outcome
// ships every shard — about
// 9 bytes per grouped policy row at shards of 128 — so it reaches the
// maxWALRecord limit near 7 million policy rows; an outcome that would exceed
// it is journaled as the epoch alone and replays as one, leaving that
// document's diff base and the cache at their previous state. A log written
// before publish records carried an outcome ("PPCDWL1"), whose outcomes
// embed version-5 delta frames ("PPCDWL2"), carry the alias map replay
// never read ("PPCDWL3") or text signatures ("PPCDWL4"), has no reader and is
// refused by name. The sequence
// number inside the AEAD envelope
// orders events totally: a snapshot taken at sequence s makes every record
// with seq ≤ s redundant, so recovery replays only the strictly-newer tail —
// which is also what makes the crash window between writing a snapshot and
// truncating the WAL harmless. Within one WAL file sequence numbers must
// increase by exactly one record to record; a gap means a record was removed
// and recovery refuses the log (an attacker with file access cannot forge
// records — they are AEAD-sealed — and the continuity check stops them from
// silently deleting one).
//
// Torn tails versus corruption: a crash mid-append leaves a record whose
// length field or body is incomplete — recovery truncates the file at the
// last complete record and carries on. A record that is complete but fails
// its CRC or AEAD check is corruption (a flipped bit cannot shorten a file),
// and recovery refuses it — except when it is the final record, where a
// block-granular torn write can leave a full-length region only partially
// persisted; that one case also truncates.
//
// What AEAD at rest does NOT provide is rollback protection: an attacker who
// can replace the whole directory with an older, honestly produced copy wins.
// Guard the directory itself (filesystem permissions, disk encryption,
// off-host backup auditing) against that.
package store

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"

	"ppcd/internal/core"
	"ppcd/internal/pubsub"
	"ppcd/internal/sym"
)

const (
	manifestName = "manifest.ppcd"
	walName      = "wal.ppcd"
	lockName     = "lock"

	// maxWALRecord bounds one sealed record. The largest legitimate event is
	// a cold publish of a very large table (see the package doc); a publish
	// outcome that would not fit is dropped to its epoch rather than the
	// publish failing.
	maxWALRecord = 64 << 20
	// maxEventString bounds one decoded string field; the publisher applies
	// its own (tighter) semantic caps on replay.
	maxEventString = 1 << 20
	// maxEventCells bounds the cells of one registration event.
	maxEventCells = 1 << 16
)

var (
	walMagic = []byte("PPCDWL5")
	manMagic = []byte("PPCDMF1")
	segMagic = []byte("PPCDSG1")
)

// Errors reported by Open.
var (
	// ErrCorrupt means a state file failed its integrity checks in a way a
	// crash cannot produce: flipped bits, a removed WAL record, a wrong key.
	ErrCorrupt = errors.New("store: state corrupt or wrong operator key")
)

// RecoveryStats describes what Recover restored.
type RecoveryStats struct {
	// Restored is false when the directory held no prior state.
	Restored bool
	// SnapshotBytes is the decrypted size of the restored snapshot (0 if
	// recovery was WAL-only).
	SnapshotBytes int
	// Segments counts the snapshot segment files restored.
	Segments int
	// Replayed counts WAL events applied on top of the snapshot.
	Replayed int
	// SkippedRecords counts WAL records already covered by the snapshot
	// (the crash-between-snapshot-and-truncate window).
	SkippedRecords int
	// TruncatedTail is true when a torn final record was cut off.
	TruncatedTail bool
}

// SnapshotStats describes the most recent Snapshot call's write work — the
// O(churn) evidence: a post-churn snapshot writes DirtySegments ≪
// TotalSegments and BytesWritten ≪ the full state size.
type SnapshotStats struct {
	// BytesWritten counts sealed bytes written (segments + manifest).
	BytesWritten int64
	// DirtySegments counts segment files written by this snapshot.
	DirtySegments int
	// TotalSegments counts segment files the manifest references.
	TotalSegments int
	// Full is true when the snapshot could not be incremental (first
	// snapshot of a directory, geometry change, a prior failed install, or a
	// recovery that had to drop conditions the publisher no longer has).
	Full bool
}

// Store is one open state directory. All methods are safe for concurrent
// use; Begin implements pubsub.Journal, the one commit path of every durable
// mutation and publish — the conformance check keeps signature drift a
// compile error.
var _ pubsub.Journal = (*Store)(nil)

type Store struct {
	dir string
	key [sym.KeySize]byte

	// snapMu serializes whole Snapshot calls (the interval ticker and a
	// shutdown can race; both write the same manifest temp file). It is
	// never taken by the append path, so journaling proceeds during an
	// export.
	snapMu     sync.Mutex
	segSlots   int // table slots per snapshot segment (0 = pubsub default)
	recWorkers int // segment fan-out: unseal+decode in Recover, seal+write in Snapshot

	mu   sync.Mutex
	cond *sync.Cond // broadcast on acked/queue/flushing transitions
	lock *os.File   // flock-held for the store's lifetime
	wal  *os.File
	// walSize is the offset of the last durably complete record's end.
	walSize int64
	// seq is the last sequence number handed out; acked is the last sequence
	// whose commit resolved (flushed+applied, or failed). queue holds sealed
	// commits awaiting the flusher (wal.go).
	seq        uint64
	acked      uint64
	queue      []*walCommit
	flushing   bool
	broken     bool // a flush failed; log unusable until a snapshot compacts
	closed     bool
	walRecords int // events admitted since the last snapshot's coverage
	// outcomesDropped counts publishes journaled as their epoch alone
	// because their outcome would have overflowed a WAL record (record).
	outcomesDropped int

	// base/man describe the last durably installed segmented snapshot: the
	// publisher-side base for the next incremental export, and the manifest
	// whose entries clean segments are carried over from. base is nil
	// whenever only a full export is sound (fresh store, or a failed install
	// after dirty bits were consumed); Recover reinstates it from the
	// manifest it restored.
	base     *pubsub.SegmentBase
	man      *manifest
	lastSnap SnapshotStats

	// crashPoint, when set by tests, is consulted at named stages of the
	// snapshot write protocol; returning true aborts the snapshot exactly
	// there, leaving the directory as a SIGKILL at that instant would.
	// Segment stages are consulted from the write workers, concurrently.
	crashPoint func(stage string) bool

	// Loaded by Open, consumed by the single Recover call.
	pending []pubsub.StateEvent
	stats   RecoveryStats
}

// Open opens (creating if necessary) a state directory under the given
// operator key and loads whatever previous state it holds. Call Recover to
// apply that state to a publisher, then SetJournal(store) so subsequent
// mutations hit the WAL.
func Open(dir string, key [sym.KeySize]byte) (*Store, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, key: key, recWorkers: runtime.GOMAXPROCS(0)}
	s.cond = sync.NewCond(&s.mu)

	// Exclusive directory lock: two live processes sharing one state
	// directory (a supervisor restarting while the old instance hangs)
	// would interleave WAL appends from independent sequence counters and
	// destroy the log. flock releases automatically if the process dies, so
	// a crash never wedges the directory.
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = lock.Close()
		return nil, fmt.Errorf("store: state directory %s is locked by another process: %w", dir, err)
	}
	s.lock = lock

	// A crash mid-snapshot can leave a manifest temp file; it was never
	// installed, so it is dead weight.
	os.Remove(filepath.Join(dir, manifestName+".tmp"))

	snapSeq, err := s.loadManifest()
	if err != nil {
		_ = s.lock.Close()
		return nil, err
	}
	// Segment files not referenced by the (possibly absent) manifest are
	// leftovers of an interrupted snapshot — unreachable by construction.
	gcSegments(dir, s.man)

	if err := s.openWAL(snapSeq); err != nil {
		_ = s.lock.Close()
		return nil, err
	}
	if s.seq < snapSeq {
		s.seq = snapSeq
	}
	s.acked = s.seq
	s.stats.Restored = s.man != nil || len(s.pending) > 0
	return s, nil
}

// SetSegmentSlots overrides the table-slot span of one snapshot segment
// (pubsub.DefaultSegmentSlots when 0). Call before the first Snapshot;
// changing the span later simply forces that snapshot to be full.
func (s *Store) SetSegmentSlots(n int) {
	s.mu.Lock()
	s.segSlots = n
	s.mu.Unlock()
}

// SetRecoveryWorkers bounds the parallel segment fan-out — unseal+decode in
// Recover, seal+write+fsync in Snapshot (default GOMAXPROCS). Call before
// Recover.
func (s *Store) SetRecoveryWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.recWorkers = n
	s.mu.Unlock()
}

// LastSnapshotStats returns the write work of the most recent Snapshot call.
func (s *Store) LastSnapshotStats() SnapshotStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSnap
}

// WALRecordsSinceSnapshot returns the number of events admitted to the WAL
// since the last snapshot's coverage point — the growth signal a
// WAL-triggered snapshot policy keys off.
func (s *Store) WALRecordsSinceSnapshot() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walRecords
}

// OutcomesDropped returns how many publishes this store has journaled as
// their epoch alone, without the outcome that lets replay skip their solves,
// because the outcome would have taken the record past the WAL record limit.
func (s *Store) OutcomesDropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.outcomesDropped
}

// Recover applies the loaded snapshot and WAL tail to a publisher. It may be
// called once, before the store is installed as the publisher's journal;
// the loaded state is released afterwards. Snapshot segments are unsealed
// and decoded in parallel across the recovery worker pool, and the manifest
// they came from becomes the base of the next Snapshot, which therefore
// rewrites only the segments touched since (by WAL replay or live churn).
func (s *Store) Recover(p *pubsub.Publisher) (RecoveryStats, error) {
	// Enforce the Recover-before-SetJournal lifecycle: were this store
	// already installed, live mutations would journal and a snapshot could
	// run against a publisher whose WAL tail is NOT yet replayed — claiming
	// coverage of those records and then compacting them away.
	if j, ok := p.Journal().(*Store); ok && j == s {
		return s.stats, errors.New("store: Recover must run before SetJournal installs this store")
	}
	s.mu.Lock()
	man, pending, workers := s.man, s.pending, s.recWorkers
	s.pending = nil
	s.mu.Unlock()

	stats := s.stats
	var base *pubsub.SegmentBase
	if man != nil {
		n, tabGen, err := s.recoverSegments(p, man, workers)
		stats.SnapshotBytes, stats.Segments = n, len(man.files)
		if err != nil {
			return stats, err
		}
		base = &pubsub.SegmentBase{
			Geometry:     pubsub.SegmentGeometry{SegSlots: man.segSlots, TableSegs: man.tableSegs, CacheSegs: man.cacheSegs},
			TabGen:       tabGen,
			CacheDigests: man.cacheDigests,
		}
	}
	for _, ev := range pending {
		if err := p.ApplyStateEvent(ev); err != nil {
			return stats, fmt.Errorf("store: replaying WAL: %w", err)
		}
		stats.Replayed++
	}
	s.mu.Lock()
	s.stats, s.base = stats, base
	s.mu.Unlock()
	return stats, nil
}

// recoverSegments restores a segmented snapshot: every referenced segment
// file is read, digest-checked, unsealed and (inside the publisher) decoded
// in parallel. Returns the total decrypted payload size and the publisher's
// table generation for the restored segments.
func (s *Store) recoverSegments(p *pubsub.Publisher, man *manifest, workers int) (int, uint64, error) {
	payloads := make([][]byte, len(man.files))
	errs := make([]error, len(man.files))
	core.Parallel(workers, len(man.files), func(i int) {
		payloads[i], errs[i] = s.openSegmentFile(man.files[i])
	})
	total := 0
	var meta []byte
	table := make([][]byte, man.tableSegs)
	cache := make([][]byte, man.cacheSegs)
	for i, f := range man.files {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		total += len(payloads[i])
		switch f.kind {
		case segKindMeta:
			meta = payloads[i]
		case segKindTable:
			table[f.index] = payloads[i]
		case segKindCache:
			cache[f.index] = payloads[i]
		}
	}
	tabGen, err := p.ImportStateSegments(man.segSlots, meta, table, cache, workers)
	if err != nil {
		return total, 0, fmt.Errorf("store: restoring snapshot: %w", err)
	}
	return total, tabGen, nil
}

// Seq returns the sequence number of the last admitted event.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Close drains the commit pipeline, then syncs and closes the WAL. It does
// not snapshot; callers wanting a final compaction call Snapshot first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	// The flusher finishes whatever was admitted before the close; new
	// commits are refused above. Wait for it so the fd stays valid under it.
	for s.flushing {
		s.cond.Wait()
	}
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	if s.lock != nil {
		_ = s.lock.Close() // releases the flock
	}
	return err
}

// syncDir fsyncs a directory so a rename inside it is durable; best-effort
// (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// --- operator key handling -------------------------------------------------

// DeriveKey maps arbitrary operator secret material (a passphrase, a raw
// key) to the store's AEAD key with a domain-separated hash.
func DeriveKey(material []byte) [sym.KeySize]byte {
	return sym.DeriveKey([]byte("ppcd/store/key/v1"), material)
}

// LoadOrCreateKeyFile reads a hex-encoded 32-byte operator key from path,
// generating (mode 0600) a fresh random one if the file does not exist. The
// key file is the root secret for everything at rest — keep it off the
// machine holding the state directory if you can (KMS, hardware token), or
// at minimum on a separate volume.
func LoadOrCreateKeyFile(path string) ([sym.KeySize]byte, error) {
	var key [sym.KeySize]byte
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		if _, err := rand.Read(key[:]); err != nil {
			return key, fmt.Errorf("store: generating key: %w", err)
		}
		enc := hex.EncodeToString(key[:]) + "\n"
		if err := os.WriteFile(path, []byte(enc), 0o600); err != nil {
			return key, fmt.Errorf("store: writing key file: %w", err)
		}
		return key, nil
	}
	if err != nil {
		return key, fmt.Errorf("store: %w", err)
	}
	dec, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil || len(dec) != sym.KeySize {
		return key, fmt.Errorf("store: key file %s must hold %d hex-encoded bytes", path, sym.KeySize)
	}
	copy(key[:], dec)
	return key, nil
}
