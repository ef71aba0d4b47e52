package main

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"ppcd"
	"ppcd/internal/benchutil"
	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

// recoverReport is the -recover JSON: segmented durable-state behaviour
// measured over one store directory.
//
// The O(churn) snapshot claim is the bytes ratio: after a small churn burst
// (-churn leavers) a snapshot rewrites only the dirty segments, so
// snapshot_bytes_written / full_snapshot_bytes_written collapses as rows
// grow. The recovery claims are the timed restarts: "cold" is the first
// restart after a clean shutdown (segments read, digest-checked, unsealed
// and decoded in place), "crash" additionally replays a WAL tail and is
// followed by the first snapshot of that incarnation — incremental, because
// slots survive the restart — and the warm sweep re-runs recovery on one
// worker and on GOMAXPROCS.
type recoverReport struct {
	Rows       int `json:"rows"`
	Policies   int `json:"policies"`
	ShardSize  int `json:"shard_size"`
	Churn      int `json:"churn"`
	CPUs       int `json:"cpus"`
	GoMaxProcs int `json:"gomaxprocs"`

	// On-disk footprint of the sealed state (manifest + segments, WAL).
	SnapshotDiskBytes int64 `json:"snapshot_disk_bytes"`
	WALDiskBytes      int64 `json:"wal_disk_bytes"`

	// Snapshot write amplification: a settled full snapshot vs the snapshot
	// after -churn revocations and one rekeying publish.
	FullSnapshotBytesWritten int64   `json:"full_snapshot_bytes_written"`
	SnapshotBytesWritten     int64   `json:"snapshot_bytes_written"`
	DirtySegments            int     `json:"dirty_segments"`
	TotalSegments            int     `json:"total_segments"`
	ChurnWriteFraction       float64 `json:"churn_write_fraction"`

	// Pipelined group commit: concurrent writers issuing one-event commits;
	// the flusher coalesces their write+fsync.
	WALAppendWriters int     `json:"wal_append_writers"`
	WALAppendsPerSec float64 `json:"wal_appends_per_sec"`

	// Clean-shutdown restart, timed end to end (open + recover).
	ColdRecoveryNs    int64  `json:"cold_recovery_ns"`
	ColdReplayed      int    `json:"cold_wal_replayed"`
	ColdSolves        uint64 `json:"cold_post_restart_solves"`
	RecoveredSegments int    `json:"recovered_segments"`
	CatchupDeltaBytes int    `json:"catchup_delta_bytes"`
	CatchupSnapBytes  int    `json:"catchup_snapshot_bytes"`
	GenPreserved      bool   `json:"gen_preserved"`
	EpochResumed      bool   `json:"epoch_resumed"`

	// Crash restart (WAL tail replay).
	CrashRecoveryNs     int64  `json:"crash_recovery_ns"`
	CrashReplayed       int    `json:"crash_wal_replayed"`
	CrashSolves         uint64 `json:"crash_post_restart_solves"`
	CrashEpochMonotonic bool   `json:"crash_epoch_monotonic"`

	// The first snapshot after that restart: only what the WAL tail and the
	// publish touched is rewritten.
	PostRestartSnapshotFull  bool  `json:"post_restart_snapshot_full"`
	PostRestartDirtySegments int   `json:"post_restart_dirty_segments"`
	PostRestartBytesWritten  int64 `json:"post_restart_snapshot_bytes_written"`
	PostRestartSnapshotNs    int64 `json:"post_restart_snapshot_ns"`

	// Parallel-recovery worker sweep over the same directory (page cache
	// warm): open + recover per worker count, the last being GOMAXPROCS.
	WarmRecoveryNs          int64            `json:"warm_recovery_ns"`
	WarmRecoveryNsByWorkers map[string]int64 `json:"warm_recovery_ns_by_workers"`
}

// runRecoverBench measures the segmented durable-state subsystem
// (internal/store): snapshot write amplification under churn, pipelined WAL
// commit throughput, and cold/crash/warm recovery times.
func runRecoverBench(rows, policies, shardSize, churn int) error {
	if rows < 16 || policies < 1 || shardSize < 2 {
		return fmt.Errorf("ppcd-bench: -recover needs rows>=16, policies>=1, shard-size>=2")
	}
	if churn < 1 || churn >= rows/2 {
		return fmt.Errorf("ppcd-bench: -recover needs 1 <= churn < rows/2")
	}
	params, err := ppcd.Setup(ppcd.SchnorrGroup(), []byte("ppcd-bench"))
	if err != nil {
		return err
	}
	idmgr, err := ppcd.NewIdentityManager(params)
	if err != nil {
		return err
	}
	acps, doc, table, err := benchutil.Workload(rows, policies, rows/2, 256)
	if err != nil {
		return err
	}
	newPub := func() (*ppcd.Publisher, error) {
		return ppcd.NewPublisher(params, idmgr.PublicKey(), acps, ppcd.Options{Ell: 8, GroupSize: shardSize})
	}

	dir, err := os.MkdirTemp("", "ppcd-recover")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var key [32]byte
	if _, err := rand.Read(key[:]); err != nil {
		return err
	}

	rep := recoverReport{
		Rows: rows, Policies: policies, ShardSize: shardSize, Churn: churn,
		CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	// Incarnation A: seed the table, settle the caches and group layout,
	// then measure a settled full snapshot.
	pubA, err := newPub()
	if err != nil {
		return err
	}
	stA, err := ppcd.OpenStore(dir, key)
	if err != nil {
		return err
	}
	if _, err := stA.Recover(pubA); err != nil {
		return err
	}
	pubA.SetJournal(stA)
	// The load journals nothing: a snapshot makes the table durable.
	if err := benchutil.Load(pubA, table); err != nil {
		return err
	}
	if err := stA.Snapshot(pubA); err != nil {
		return err
	}
	if _, err := pubA.Publish(doc); err != nil { // full solve storm, assigns groups
		return err
	}
	if _, err := pubA.Publish(doc); err != nil { // steady state
		return err
	}
	if err := stA.Snapshot(pubA); err != nil {
		return err
	}
	rep.FullSnapshotBytesWritten = stA.LastSnapshotStats().BytesWritten

	// Churn burst: -churn leavers, one rekeying publish. preRestart is the
	// broadcast a connected subscriber would hold across the restart.
	for i := 0; i < churn; i++ {
		if err := pubA.RevokeSubscription(fmt.Sprintf("pn-%d", i)); err != nil {
			return err
		}
	}
	preRestart, err := pubA.Publish(doc)
	if err != nil {
		return err
	}

	// Pipelined commit throughput: concurrent writers, one event per commit,
	// each waiting for durability before issuing the next — the flusher
	// coalesces the group. The events are journal-only (epoch re-stamps);
	// the quiet snapshot below compacts them away.
	const writers, perWriter = 4, 250
	ev := pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: doc.Name, Epoch: pubA.Epoch()}
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tk, err := stA.Begin([]pubsub.StateEvent{ev}, nil)
				if err == nil {
					err = tk.Wait()
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}
	rep.WALAppendWriters = writers
	rep.WALAppendsPerSec = float64(writers*perWriter) / time.Since(start).Seconds()

	// The post-churn snapshot: only segments the churn dirtied get written.
	if err := stA.Snapshot(pubA); err != nil {
		return err
	}
	cs := stA.LastSnapshotStats()
	rep.SnapshotBytesWritten = cs.BytesWritten
	rep.DirtySegments = cs.DirtySegments
	rep.TotalSegments = cs.TotalSegments
	if rep.FullSnapshotBytesWritten > 0 {
		rep.ChurnWriteFraction = float64(cs.BytesWritten) / float64(rep.FullSnapshotBytesWritten)
	}
	if err := stA.Close(); err != nil {
		return err
	}
	rep.SnapshotDiskBytes = diskBytes(dir, func(n string) bool {
		return n == "manifest.ppcd" || (strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".ppcd"))
	})
	rep.WALDiskBytes = diskBytes(dir, func(n string) bool { return n == "wal.ppcd" })

	// Cold restart: open + recover timed together (the operator-visible
	// restart cost), then the zero-solve first publish and the delta a
	// reconnecting subscriber current at preRestart.Epoch receives.
	pubB, err := newPub()
	if err != nil {
		return err
	}
	start = time.Now()
	stB, err := ppcd.OpenStore(dir, key)
	if err != nil {
		return err
	}
	recB, err := stB.Recover(pubB)
	if err != nil {
		return err
	}
	rep.ColdRecoveryNs = time.Since(start).Nanoseconds()
	rep.ColdReplayed = recB.Replayed
	rep.RecoveredSegments = recB.Segments
	pubB.SetJournal(stB)

	before := pubB.Stats()
	postRestart, err := pubB.Publish(doc)
	if err != nil {
		return err
	}
	rep.ColdSolves = pubB.Stats().Solves - before.Solves
	rep.GenPreserved = postRestart.Gen == preRestart.Gen
	rep.EpochResumed = postRestart.Epoch == preRestart.Epoch+1
	d, err := ppcd.Diff(preRestart, postRestart)
	if err != nil {
		return fmt.Errorf("ppcd-bench: diff across restart: %w", err)
	}
	rep.CatchupDeltaBytes = len(wire.MarshalDeltaFrame(d))
	rep.CatchupSnapBytes = len(wire.MarshalSnapshotFrame(postRestart))

	// Crash: journal a revocation and a publish, then abandon the store
	// without a snapshot — the WAL tail is all that survives.
	if err := pubB.RevokeSubscription(fmt.Sprintf("pn-%d", churn)); err != nil {
		return err
	}
	crashed, err := pubB.Publish(doc)
	if err != nil {
		return err
	}
	if err := stB.Close(); err != nil {
		return err
	}

	pubC, err := newPub()
	if err != nil {
		return err
	}
	start = time.Now()
	stC, err := ppcd.OpenStore(dir, key)
	if err != nil {
		return err
	}
	recC, err := stC.Recover(pubC)
	if err != nil {
		return err
	}
	rep.CrashRecoveryNs = time.Since(start).Nanoseconds()
	rep.CrashReplayed = recC.Replayed
	pubC.SetJournal(stC)
	before = pubC.Stats()
	after, err := pubC.Publish(doc)
	if err != nil {
		return err
	}
	rep.CrashSolves = pubC.Stats().Solves - before.Solves
	rep.CrashEpochMonotonic = after.Epoch > crashed.Epoch
	start = time.Now()
	if err := stC.Snapshot(pubC); err != nil { // also compacts, so the sweep is pure segment decode
		return err
	}
	rep.PostRestartSnapshotNs = time.Since(start).Nanoseconds()
	ps := stC.LastSnapshotStats()
	rep.PostRestartSnapshotFull = ps.Full
	rep.PostRestartDirtySegments = ps.DirtySegments
	rep.PostRestartBytesWritten = ps.BytesWritten
	if err := stC.Close(); err != nil {
		return err
	}

	// Warm sweep: recovery of the same directory (page cache warm) on one
	// worker and on GOMAXPROCS.
	rep.WarmRecoveryNsByWorkers = make(map[string]int64)
	sweep := []int{1}
	if rep.GoMaxProcs > 1 {
		sweep = append(sweep, rep.GoMaxProcs)
	}
	for _, w := range sweep {
		pubW, err := newPub()
		if err != nil {
			return err
		}
		start = time.Now()
		stW, err := ppcd.OpenStore(dir, key)
		if err != nil {
			return err
		}
		stW.SetRecoveryWorkers(w)
		if _, err := stW.Recover(pubW); err != nil {
			return err
		}
		ns := time.Since(start).Nanoseconds()
		rep.WarmRecoveryNsByWorkers[fmt.Sprintf("%d", w)] = ns
		rep.WarmRecoveryNs = ns
		if err := stW.Close(); err != nil {
			return err
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// diskBytes sums the sizes of directory entries matching keep.
func diskBytes(dir string, keep func(string) bool) int64 {
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if !keep(e.Name()) {
			continue
		}
		if fi, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
			total += fi.Size()
		}
	}
	return total
}
