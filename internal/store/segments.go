package store

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"ppcd/internal/codec"
	"ppcd/internal/core"
	"ppcd/internal/pubsub"
	"ppcd/internal/sym"
)

// Segment kinds, used both as the manifest's kind tag and inside each sealed
// segment (the AEAD payload opens with kind‖index, binding every file to its
// manifest slot — a segment file cannot be swapped for another valid one).
const (
	segKindMeta  = byte('m')
	segKindTable = byte('t')
	segKindCache = byte('c')
)

const (
	manVersion = 1
	// maxManifestSegs bounds each per-kind segment count; together with the
	// per-file entry size this caps a decoded manifest far below any
	// allocation hazard.
	maxManifestSegs = 1 << 20
	// maxSegName bounds one segment file name in the manifest.
	maxSegName = 128
	// maxManSegSlots bounds the recorded table-slot span per segment.
	maxManSegSlots = 1 << 22
)

// errSnapCrash is returned by Snapshot when a test crash point aborts the
// write protocol mid-flight (simulating SIGKILL at that exact stage).
var errSnapCrash = errors.New("store: snapshot aborted at test crash point")

// manFile is one segment file referenced by a manifest: its identity
// (kind, index), name, and the size + SHA-256 of the sealed file bytes.
type manFile struct {
	kind  byte
	index int
	name  string
	size  int64
	sum   [32]byte
}

// manifest describes one installed segmented snapshot. files always lists
// the meta segment first, then table segments by index, then cache segments
// by index. cacheDigests carries every cache bucket's content digest so the
// next export can skip clean buckets even though it rewrites none of them.
type manifest struct {
	walSeq       uint64
	segSlots     int
	tableSegs    int
	cacheSegs    int
	files        []manFile
	cacheDigests [][32]byte
}

func encodeManifest(m *manifest) []byte {
	var w codec.Writer
	w.U8(manVersion)
	w.U64(m.walSeq)
	w.U32(m.segSlots)
	w.U32(m.tableSegs)
	w.U32(m.cacheSegs)
	w.U32(len(m.files))
	for _, f := range m.files {
		w.U8(f.kind)
		w.U32(f.index)
		w.Str(f.name)
		w.U64(uint64(f.size))
		w.Raw(f.sum[:])
	}
	for _, d := range m.cacheDigests {
		w.Raw(d[:])
	}
	return w.Out()
}

// segFileNameOK vets a manifest-supplied file name before it is joined onto
// the state directory: names are flat (no separators, no traversal) and
// carry the segment prefix, so a tampered manifest that somehow authenticated
// could still never read outside the directory.
func segFileNameOK(name string) bool {
	return len(name) > 0 && len(name) <= maxSegName &&
		strings.HasPrefix(name, "seg-") &&
		strings.HasSuffix(name, ".ppcd") &&
		!strings.ContainsAny(name, "/\\") &&
		name == filepath.Base(name)
}

func decodeManifest(plain []byte) (*manifest, error) {
	bad := func(err error) (*manifest, error) {
		return nil, fmt.Errorf("%w: bad manifest encoding: %v", ErrCorrupt, err)
	}
	r := codec.NewReader(plain, nil)
	ver, err := r.U8()
	if err != nil {
		return bad(err)
	}
	if ver != manVersion {
		return nil, fmt.Errorf("%w: unsupported manifest version %d", ErrCorrupt, ver)
	}
	m := &manifest{}
	if m.walSeq, err = r.U64(); err != nil {
		return bad(err)
	}
	if m.segSlots, err = r.Len(maxManSegSlots); err != nil {
		return bad(err)
	}
	if m.tableSegs, err = r.Len(maxManifestSegs); err != nil {
		return bad(err)
	}
	if m.cacheSegs, err = r.Len(maxManifestSegs); err != nil {
		return bad(err)
	}
	if m.segSlots < 1 || m.cacheSegs < 1 {
		return nil, fmt.Errorf("%w: manifest geometry %d/%d/%d out of range", ErrCorrupt, m.segSlots, m.tableSegs, m.cacheSegs)
	}
	nfiles, err := r.Len(2 * maxManifestSegs)
	if err != nil {
		return bad(err)
	}
	if nfiles != 1+m.tableSegs+m.cacheSegs {
		return nil, fmt.Errorf("%w: manifest lists %d files for %d segments", ErrCorrupt, nfiles, 1+m.tableSegs+m.cacheSegs)
	}
	// Every segment slot must be covered by exactly one file.
	seenMeta := false
	seenTable := make([]bool, m.tableSegs)
	seenCache := make([]bool, m.cacheSegs)
	m.files = make([]manFile, 0, nfiles)
	for i := 0; i < nfiles; i++ {
		var f manFile
		if f.kind, err = r.U8(); err != nil {
			return bad(err)
		}
		idx, err := r.Len(maxManifestSegs)
		if err != nil {
			return bad(err)
		}
		f.index = idx
		if f.name, err = r.Str(maxSegName); err != nil {
			return bad(err)
		}
		if !segFileNameOK(f.name) {
			return nil, fmt.Errorf("%w: manifest file name %q rejected", ErrCorrupt, f.name)
		}
		size, err := r.U64()
		if err != nil {
			return bad(err)
		}
		if size > maxStateBytesOnDisk {
			return nil, fmt.Errorf("%w: manifest segment of %d bytes exceeds limits", ErrCorrupt, size)
		}
		f.size = int64(size)
		sum, err := r.Take(32)
		if err != nil {
			return bad(err)
		}
		copy(f.sum[:], sum)
		switch {
		case f.kind == segKindMeta && idx == 0 && !seenMeta:
			seenMeta = true
		case f.kind == segKindTable && idx < m.tableSegs && !seenTable[idx]:
			seenTable[idx] = true
		case f.kind == segKindCache && idx < m.cacheSegs && !seenCache[idx]:
			seenCache[idx] = true
		default:
			return nil, fmt.Errorf("%w: manifest segment %c%d duplicated or out of range", ErrCorrupt, f.kind, idx)
		}
		m.files = append(m.files, f)
	}
	m.cacheDigests = make([][32]byte, m.cacheSegs)
	for i := range m.cacheDigests {
		d, err := r.Take(32)
		if err != nil {
			return bad(err)
		}
		copy(m.cacheDigests[i][:], d)
	}
	if err := r.Done(); err != nil {
		return bad(err)
	}
	return m, nil
}

// maxStateBytesOnDisk bounds one sealed segment file; it mirrors the
// publisher's decoded-state cap with framing headroom.
const maxStateBytesOnDisk = 1<<30 + 4096

// loadManifest reads manifest.ppcd if present, returning the WAL sequence
// the installed snapshot covers (0 when absent).
func (s *Store) loadManifest() (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	if !bytes.HasPrefix(raw, manMagic) {
		return 0, fmt.Errorf("%w: bad manifest magic", ErrCorrupt)
	}
	plain, err := sym.Decrypt(s.key, raw[len(manMagic):])
	if err != nil {
		return 0, fmt.Errorf("%w: manifest does not authenticate", ErrCorrupt)
	}
	man, err := decodeManifest(plain)
	if err != nil {
		return 0, err
	}
	s.man = man
	return man.walSeq, nil
}

// gcSegments removes segment files not referenced by the given manifest
// (nil = remove all): leftovers of interrupted or superseded snapshot writes,
// unreachable by construction since installs rename a manifest over them
// atomically.
func gcSegments(dir string, man *manifest) {
	keep := make(map[string]bool)
	if man != nil {
		for _, f := range man.files {
			keep[f.name] = true
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".ppcd") && !keep[name] {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// openSegmentFile reads, digest-checks and unseals one referenced segment
// file, returning its plaintext payload. The manifest's size is checked
// before a byte is read and exactly that many are: a file swapped for a
// larger one costs nothing.
func (s *Store) openSegmentFile(f manFile) ([]byte, error) {
	fd, err := os.Open(filepath.Join(s.dir, f.name))
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot segment %s unreadable: %v", ErrCorrupt, f.name, err)
	}
	defer func() { _ = fd.Close() }() // read-only: nothing to lose
	if fi, err := fd.Stat(); err != nil || fi.Size() != f.size {
		return nil, fmt.Errorf("%w: snapshot segment %s fails its manifest digest", ErrCorrupt, f.name)
	}
	raw := make([]byte, f.size)
	if _, err := io.ReadFull(fd, raw); err != nil {
		return nil, fmt.Errorf("%w: snapshot segment %s unreadable: %v", ErrCorrupt, f.name, err)
	}
	if sha256.Sum256(raw) != f.sum {
		return nil, fmt.Errorf("%w: snapshot segment %s fails its manifest digest", ErrCorrupt, f.name)
	}
	if !bytes.HasPrefix(raw, segMagic) {
		return nil, fmt.Errorf("%w: bad magic in snapshot segment %s", ErrCorrupt, f.name)
	}
	plain, err := sym.Decrypt(s.key, raw[len(segMagic):])
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot segment %s does not authenticate", ErrCorrupt, f.name)
	}
	r := codec.NewReader(plain, nil)
	kind, kerr := r.U8()
	index, ierr := r.U32()
	if kerr != nil || ierr != nil || kind != f.kind || index != uint32(f.index) {
		return nil, fmt.Errorf("%w: snapshot segment %s bound to a different identity", ErrCorrupt, f.name)
	}
	payload, err := r.Take(r.Remaining())
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot segment %s truncated", ErrCorrupt, f.name)
	}
	return payload, nil
}

// writeSegmentFile seals one segment payload under a fresh random file name
// (referenced files are never overwritten — crash safety of the previous
// snapshot depends on it) and fsyncs it. Returns the manifest entry.
func (s *Store) writeSegmentFile(kind byte, index int, payload []byte) (manFile, error) {
	plain := make([]byte, 5+len(payload))
	plain[0] = kind
	binary.BigEndian.PutUint32(plain[1:], uint32(index))
	copy(plain[5:], payload)
	sealed, err := sym.Encrypt(s.key, plain)
	if err != nil {
		return manFile{}, fmt.Errorf("store: %w", err)
	}
	var rnd [8]byte
	if _, err := rand.Read(rnd[:]); err != nil {
		return manFile{}, fmt.Errorf("store: %w", err)
	}
	name := fmt.Sprintf("seg-%c%d-%s.ppcd", kind, index, hex.EncodeToString(rnd[:]))

	mf := manFile{kind: kind, index: index, name: name}
	if mf.size, mf.sum, err = writeSealedFile(filepath.Join(s.dir, name), os.O_EXCL, segMagic, sealed); err != nil {
		return manFile{}, fmt.Errorf("store: writing snapshot segment: %w", err)
	}
	return mf, nil
}

// writeSealedFile writes magic ‖ sealed to path (created; mode is O_EXCL or
// O_TRUNC) and fsyncs it, returning the size and SHA-256 of what it wrote. A
// failed write leaves no file behind.
func writeSealedFile(path string, mode int, magic, sealed []byte) (int64, [32]byte, error) {
	var digest [32]byte
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|mode, 0o600)
	if err != nil {
		return 0, digest, err
	}
	sum := sha256.New()
	out := io.MultiWriter(f, sum)
	if _, err = out.Write(magic); err == nil {
		_, err = out.Write(sealed)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, digest, err
	}
	sum.Sum(digest[:0])
	return int64(len(magic) + len(sealed)), digest, nil
}

// crash consults the test crash hook at one named stage of the snapshot
// write protocol.
func (s *Store) crash(stage string) bool {
	return s.crashPoint != nil && s.crashPoint(stage)
}

// Snapshot exports the publisher's state as segments, writes the dirty ones,
// and atomically installs a new manifest over the set; the WAL is then
// compacted if no event raced the export (otherwise it is left in place —
// its stale prefix is skipped by sequence number on the next recovery, and a
// later quiet snapshot compacts it).
//
// After churn this is an O(churn) operation: clean table segments and cache
// buckets carry their previous files into the new manifest untouched, so the
// write amplification is proportional to what actually changed plus one meta
// segment and one manifest.
func (s *Store) Snapshot(p *pubsub.Publisher) error {
	// One snapshot at a time: concurrent calls (interval ticker vs shutdown)
	// would interleave on the manifest temp file. Commits never take snapMu,
	// so journaling proceeds during the export and the file writes.
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	// The sequence captured here is the only sound cover claim: events
	// admitted during the export may or may not be included, so they must be
	// replayed — replay is idempotent over a state that already contains
	// them, and the sequence filter cuts a clean prefix. The capture happens
	// inside the publisher's journal barrier with the commit pipeline
	// drained: without that, a mutation could sit admitted-but-not-applied,
	// the export would miss it, and the snapshot would still claim its
	// sequence — losing the event on the next recovery.
	var seqBefore uint64
	var closed bool
	p.JournalBarrier(func() {
		seqBefore, closed = s.drainCommits()
	})
	if closed {
		return errors.New("store: closed")
	}

	s.mu.Lock()
	base, prev, segSlots, workers := s.base, s.man, s.segSlots, s.recWorkers
	// The export consumes the publisher's dirty tracking; until the new
	// manifest is durably installed only a full export is sound, so the
	// base is forfeited now and reinstated on success.
	s.base = nil
	s.mu.Unlock()

	exp, err := p.ExportStateSegments(segSlots, base)
	if err != nil {
		return fmt.Errorf("store: exporting state: %w", err)
	}
	if exp.Full {
		prev = nil
	}

	man, stats, err := s.installSegments(exp, prev, seqBefore, workers)
	if err != nil {
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.man = man
	s.base = &pubsub.SegmentBase{Geometry: exp.Geometry, TabGen: exp.TabGen, CacheDigests: exp.CacheDigests}
	s.lastSnap = stats
	if s.closed {
		return nil
	}
	s.walRecords = int(s.seq - seqBefore)
	if s.seq == seqBefore && s.acked == s.seq && len(s.queue) == 0 {
		// Quiet since the export and no flush in flight: every WAL record is
		// covered by the new snapshot, so the log restarts empty. This also
		// repairs a log disabled by a flush failure — the truncation removes
		// the trailing garbage along with everything else, and every
		// sequence the failed commits claimed is now covered.
		if err := s.wal.Truncate(int64(len(walMagic))); err != nil {
			return fmt.Errorf("store: compacting WAL: %w", err)
		}
		if _, err := s.wal.Seek(int64(len(walMagic)), 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.walSize = int64(len(walMagic))
		s.broken = false
	}
	return nil
}

// installSegments writes the export's dirty segments, carries clean ones
// over from the previous manifest, and installs the new manifest atomically.
func (s *Store) installSegments(exp *pubsub.SegmentExport, prev *manifest, seqBefore uint64, workers int) (*manifest, SnapshotStats, error) {
	geo := exp.Geometry
	man := &manifest{
		walSeq:       seqBefore,
		segSlots:     geo.SegSlots,
		tableSegs:    geo.TableSegs,
		cacheSegs:    geo.CacheSegs,
		cacheDigests: exp.CacheDigests,
	}
	stats := SnapshotStats{Full: exp.Full, TotalSegments: 1 + geo.TableSegs + geo.CacheSegs}

	carried := make(map[[2]int]manFile)
	if prev != nil {
		for _, f := range prev.files {
			carried[[2]int{int(f.kind), f.index}] = f
		}
	}
	// The manifest order: meta, then table and cache segments by index. A
	// segment the export did not rewrite carries its previous file.
	type job struct {
		kind    byte
		index   int
		payload []byte
	}
	jobs := []job{{segKindMeta, 0, exp.Meta}}
	for i := 0; i < geo.TableSegs; i++ {
		jobs = append(jobs, job{segKindTable, i, exp.Table[i]})
	}
	for i := 0; i < geo.CacheSegs; i++ {
		jobs = append(jobs, job{segKindCache, i, exp.Cache[i]})
	}
	man.files = make([]manFile, len(jobs))
	var dirty []int
	for i, j := range jobs {
		if j.payload != nil {
			dirty = append(dirty, i)
			continue
		}
		f, have := carried[[2]int{int(j.kind), j.index}]
		if !have {
			return nil, stats, fmt.Errorf("store: internal: clean segment %c%d has no previous manifest entry", j.kind, j.index)
		}
		man.files[i] = f
	}
	// Dirty segments are independent files under fresh names: seal, digest,
	// write and fsync them across the worker pool. Only the directory sync
	// and the manifest are ordered after them. After a failure (or a test
	// crash point) the remaining writes are skipped; what was written is
	// unreferenced and collected by the next install or Open.
	errs := make([]error, len(dirty))
	var failed atomic.Bool
	core.Parallel(workers, len(dirty), func(k int) {
		if failed.Load() {
			return
		}
		i := dirty[k]
		j := jobs[i]
		if man.files[i], errs[k] = s.writeSegmentFile(j.kind, j.index, j.payload); errs[k] == nil && s.crash(fmt.Sprintf("segment:%c%d", j.kind, j.index)) {
			errs[k] = errSnapCrash
		}
		if errs[k] != nil {
			failed.Store(true)
		}
	})
	for k, i := range dirty {
		if errs[k] != nil {
			return nil, stats, errs[k]
		}
		stats.BytesWritten += man.files[i].size
	}
	stats.DirtySegments = len(dirty)
	// Segment directory entries must be durable before a manifest references
	// them: otherwise a crash could surface the new manifest with a segment
	// file missing.
	syncDir(s.dir)

	sealed, err := sym.Encrypt(s.key, encodeManifest(man))
	if err != nil {
		return nil, stats, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(s.dir, manifestName)
	tmp := path + ".tmp"
	size, _, err := writeSealedFile(tmp, os.O_TRUNC, manMagic, sealed)
	if err != nil {
		return nil, stats, fmt.Errorf("store: writing manifest: %w", err)
	}
	stats.BytesWritten += size
	if s.crash("manifest-tmp") {
		return nil, stats, errSnapCrash
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, stats, fmt.Errorf("store: installing manifest: %w", err)
	}
	syncDir(s.dir)
	if s.crash("manifest-renamed") {
		return nil, stats, errSnapCrash
	}
	// Post-install housekeeping, safe to lose to a crash: segment files the
	// new manifest no longer references.
	gcSegments(s.dir, man)
	return man, stats, nil
}
