package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"ppcd/internal/codec"
	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/pubsub"
	"ppcd/internal/sym"
	"ppcd/internal/wire"
)

// openWAL opens wal.ppcd, scans it, retains the events newer than snapSeq
// for Recover, truncates a torn tail, and leaves the handle positioned for
// appends.
func (s *Store) openWAL(snapSeq uint64) error {
	path := filepath.Join(s.dir, walName)
	raw, err := os.ReadFile(path)
	fresh := errors.Is(err, os.ErrNotExist)
	if err != nil && !fresh {
		return fmt.Errorf("store: %w", err)
	}
	if fresh || len(raw) == 0 {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if _, err := f.Write(walMagic); err != nil {
			_ = f.Close()
			return fmt.Errorf("store: %w", err)
		}
		if err := f.Sync(); err != nil {
			_ = f.Close()
			return fmt.Errorf("store: %w", err)
		}
		s.wal = f
		s.walSize = int64(len(walMagic))
		return nil
	}
	if !bytes.HasPrefix(raw, walMagic) {
		for magic, why := range retiredWALs {
			if bytes.HasPrefix(raw, []byte(magic)) {
				return fmt.Errorf("%w: WAL format %s has no reader (%s)", ErrCorrupt, magic, why)
			}
		}
		return fmt.Errorf("%w: bad WAL magic", ErrCorrupt)
	}

	off := len(walMagic)
	goodEnd := off
	var firstSeq, lastSeq uint64
	haveSeq := false
	for off < len(raw) {
		rec, n, err := parseRecord(raw[off:], s.key)
		if err != nil {
			// A crash can also persist the file's extended size without its
			// data blocks, leaving an all-zero tail: crc32("") is 0, so a
			// zeroed length/CRC header passes the checksum and would
			// misclassify as corruption. Whatever the parse failure, a
			// remainder of pure zeros is a torn tail, not an attack — no
			// honest record is all zeros (sealed bodies are AEAD output).
			if errors.Is(err, errTorn) || allZero(raw[off:]) {
				s.stats.TruncatedTail = true
				break // truncate at goodEnd
			}
			return err
		}
		if haveSeq && rec.seq != lastSeq+1 {
			return fmt.Errorf("%w: WAL sequence jumps %d → %d (record removed?)", ErrCorrupt, lastSeq, rec.seq)
		}
		if !haveSeq {
			firstSeq = rec.seq
		}
		lastSeq, haveSeq = rec.seq, true
		if rec.seq > snapSeq {
			s.pending = append(s.pending, rec.ev)
		} else {
			s.stats.SkippedRecords++
		}
		off += n
		goodEnd = off
	}

	// Continuity must also hold at the head: the log's first record has to
	// connect to the snapshot's covered sequence, or records were excised
	// from the front (silently losing their mutations on replay).
	if haveSeq && firstSeq > snapSeq+1 {
		return fmt.Errorf("%w: WAL starts at sequence %d but the snapshot covers only %d (records removed?)",
			ErrCorrupt, firstSeq, snapSeq)
	}
	if goodEnd < len(raw) {
		if err := os.Truncate(path, int64(goodEnd)); err != nil {
			return fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o600)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Seek(int64(goodEnd), 0); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.wal = f
	s.walSize = int64(goodEnd)
	if haveSeq {
		s.seq = lastSeq
	}
	return nil
}

// retiredWALs names the earlier log formats, which are refused by name.
var retiredWALs = map[string]string{
	"PPCDWL1": "its publish records carry no outcome",
	"PPCDWL2": "its publish records embed version-5 delta frames",
	"PPCDWL3": "its publish records carry an alias map",
}

// allZero reports whether every byte of b is zero (the signature of a file
// whose size was persisted before its data blocks — a torn tail).
func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// errTorn distinguishes an incomplete tail record (crash mid-append;
// recoverable by truncation) from corruption.
var errTorn = errors.New("store: torn WAL tail")

type walRecord struct {
	seq uint64
	ev  pubsub.StateEvent
}

// parseRecord decodes one record from the head of buf, returning its total
// encoded length. A record that runs past the buffer is torn; a complete
// record failing CRC or AEAD is corrupt — unless nothing follows it, where a
// block-granular torn write is still possible and it is treated as torn.
func parseRecord(buf []byte, key [sym.KeySize]byte) (walRecord, int, error) {
	hdr := codec.NewReader(buf, nil)
	n, err := hdr.Len(maxWALRecord)
	if err != nil {
		if errors.Is(err, codec.ErrTruncated) {
			return walRecord{}, 0, errTorn
		}
		return walRecord{}, 0, fmt.Errorf("%w: WAL record length exceeds the %d-byte limit", ErrCorrupt, maxWALRecord)
	}
	sum, err := hdr.U32()
	if err != nil {
		return walRecord{}, 0, errTorn
	}
	sealed, err := hdr.Take(n)
	if err != nil {
		return walRecord{}, 0, errTorn
	}
	last := hdr.Remaining() == 0
	if crc32.ChecksumIEEE(sealed) != sum {
		if last {
			return walRecord{}, 0, errTorn
		}
		return walRecord{}, 0, fmt.Errorf("%w: WAL record checksum mismatch", ErrCorrupt)
	}
	// A CRC match proves the sealed bytes are exactly what the flusher
	// wrote, so an AEAD failure here can never be a torn write — it is the
	// wrong operator key or deliberate tampering, and it fails loudly even
	// at the tail (a wrong key must not silently truncate a snapshot-less
	// log).
	plain, err := sym.Decrypt(key, sealed)
	if err != nil {
		return walRecord{}, 0, fmt.Errorf("%w: WAL record does not authenticate", ErrCorrupt)
	}
	body := codec.NewReader(plain, nil)
	seq, err := body.U64()
	if err != nil {
		return walRecord{}, 0, fmt.Errorf("%w: WAL record too short", ErrCorrupt)
	}
	evBytes, err := body.Take(body.Remaining())
	if err != nil {
		return walRecord{}, 0, fmt.Errorf("%w: WAL record too short", ErrCorrupt)
	}
	ev, err := decodeEvent(evBytes)
	if err != nil {
		return walRecord{}, 0, err
	}
	return walRecord{seq: seq, ev: ev}, 8 + n, nil
}

// --- pipelined group commit ------------------------------------------------

// walCommit is one admitted commit: its sealed records, the last sequence it
// claims, the in-memory apply to run once durable, and the latch its ticket
// waits on.
type walCommit struct {
	recs    []byte
	lastSeq uint64
	apply   func()
	err     error
	done    chan struct{}
}

type commitTicket struct{ c *walCommit }

func (t commitTicket) Wait() error {
	<-t.c.done
	return t.c.err
}

// Begin implements pubsub.Journal: it seals evs into consecutive
// records, claims their sequence numbers, and enqueues them for the flusher
// goroutine — returning immediately, so the caller can release its mutation
// lock and concurrent mutators can join the same coalesced write+fsync.
// apply runs on the flusher, in sequence order, exactly once, strictly after
// the records are durable and strictly before the ticket resolves; on a
// flush failure it never runs.
//
// The write-ahead invariant is preserved end to end: no mutation is visible
// in memory (apply) or to the caller (Wait) before its record is fsynced,
// and the flusher applies commits in the exact order their records hit the
// log.
func (s *Store) Begin(evs []pubsub.StateEvent, apply func()) (pubsub.CommitTicket, error) {
	if apply == nil {
		apply = func() {}
	}
	plains := make([][]byte, len(evs))
	dropped := 0
	for i, ev := range evs {
		plain, outcomeDropped, err := record(ev)
		if err != nil {
			return nil, err
		}
		plains[i] = plain
		if outcomeDropped {
			dropped++
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("store: closed")
	}
	if s.broken {
		s.mu.Unlock()
		return nil, errors.New("store: WAL unusable after an unrecoverable append failure")
	}
	c := &walCommit{apply: apply, done: make(chan struct{})}
	for i, plain := range plains {
		sealed, err := s.seal(s.seq+uint64(i)+1, plain)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(sealed)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(sealed))
		c.recs = append(c.recs, hdr[:]...)
		c.recs = append(c.recs, sealed...)
	}
	s.seq += uint64(len(evs))
	s.walRecords += len(evs)
	s.outcomesDropped += dropped
	c.lastSeq = s.seq
	s.queue = append(s.queue, c)
	if !s.flushing {
		s.flushing = true
		go s.flushLoop()
	}
	s.mu.Unlock()
	return commitTicket{c}, nil
}

// sealOverhead is what sealing adds to a record's plaintext: the AES-GCM
// nonce and tag.
const sealOverhead = 12 + 16

// record encodes ev as the plaintext of its record, its first 8 bytes left
// for the sequence number seal stamps. Recovery refuses records above
// maxWALRecord as corrupt, so a publish whose outcome would take its record
// past the limit is encoded as its epoch alone, and replays as one —
// outcomeDropped reports it, and Store.OutcomesDropped counts it — and any
// other event that large is rejected here — failing the triggering
// operation — never written and fsynced into a log that can no longer be
// opened.
func record(ev pubsub.StateEvent) (plain []byte, outcomeDropped bool, err error) {
	plain = appendEvent(make([]byte, 8, 64), ev)
	if len(plain)+sealOverhead > maxWALRecord && ev.Outcome != nil {
		ev.Outcome = nil
		plain = appendEvent(make([]byte, 8, 64), ev)
		outcomeDropped = true
	}
	if n := len(plain) + sealOverhead; n > maxWALRecord {
		return nil, false, fmt.Errorf("store: event of %d sealed bytes exceeds the %d WAL record limit", n, maxWALRecord)
	}
	return plain, outcomeDropped, nil
}

// seal stamps a record's plaintext with its sequence number and seals it.
func (s *Store) seal(seq uint64, plain []byte) ([]byte, error) {
	binary.BigEndian.PutUint64(plain, seq)
	sealed, err := sym.Encrypt(s.key, plain)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return sealed, nil
}

// flushLoop drains the commit queue: each pass takes every queued commit and
// makes them durable with ONE write + fsync. Commits admitted while a flush
// is in flight pile up and share the next one, so under concurrent mutators
// the fsync cost amortizes across the group while a lone mutator still pays
// exactly one fsync of latency.
func (s *Store) flushLoop() {
	s.mu.Lock()
	for len(s.queue) > 0 {
		batch := s.queue
		s.queue = nil
		s.mu.Unlock()

		recs := batch[0].recs
		if len(batch) > 1 {
			total := 0
			for _, c := range batch {
				total += len(c.recs)
			}
			recs = make([]byte, 0, total)
			for _, c := range batch {
				recs = append(recs, c.recs...)
			}
		}
		_, werr := s.wal.Write(recs)
		if werr == nil {
			werr = s.wal.Sync()
		}
		if werr != nil {
			s.failFlush(batch, werr)
			return
		}
		// Durable: run the applies in sequence order before any ticket
		// resolves and before acked advances (the snapshot drain takes
		// acked ≥ target to mean "applied", not merely "on disk").
		for _, c := range batch {
			c.apply()
		}
		s.mu.Lock()
		s.walSize += int64(len(recs))
		if last := batch[len(batch)-1].lastSeq; last > s.acked {
			s.acked = last
		}
		s.cond.Broadcast()
		for _, c := range batch {
			close(c.done)
		}
	}
	s.flushing = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// failFlush handles a failed write/fsync: the file is rolled back
// best-effort to the last durable record, every queued commit fails, and
// the log latches broken. The sequence counter is NEVER rolled back — a
// concurrent snapshot may already have captured the failed sequences as its
// cover point, and reissuing them to later events would make recovery skip
// those events silently. A later quiet snapshot compacts the WAL and clears
// the latch.
func (s *Store) failFlush(batch []*walCommit, werr error) {
	s.mu.Lock()
	s.broken = true
	err := fmt.Errorf("store: appending WAL: %w (log disabled until a snapshot compacts it)", werr)
	if terr := s.wal.Truncate(s.walSize); terr != nil {
		err = fmt.Errorf("store: appending WAL: %v; rollback failed, log disabled: %w", werr, terr)
	} else if _, serr := s.wal.Seek(s.walSize, 0); serr != nil {
		err = fmt.Errorf("store: appending WAL: %v; rollback failed, log disabled: %w", werr, serr)
	}
	// broken is set, so no commit can be admitted behind us: the queue we
	// drain here is the complete set of outstanding commits.
	batch = append(batch, s.queue...)
	s.queue = nil
	s.acked = s.seq
	s.flushing = false
	s.cond.Broadcast()
	for _, c := range batch {
		c.err = err
		close(c.done)
	}
	s.mu.Unlock()
}

// drainCommits waits until every admitted commit has resolved and returns
// the sequence number an upcoming snapshot may claim coverage of. It runs
// inside the publisher's journal barrier: table mutators are blocked, so
// every table mutation with seq ≤ the returned value is applied and will be
// captured by the export. Publish records can still be admitted DURING the
// drain (they commit outside the mutation lock), and claiming them is sound
// too. A publish's rekey session writes the engine cache before its Begin,
// and the export reads the cache after this drain. Its epoch and diff base
// are committed after its ticket resolves, but under the publish lock it has
// held since before its Begin, which the export's epoch and diff-base read
// takes — so the export holds every publish whose sequence the snapshot
// claims. A publish above the claim whose broadcast the export nonetheless
// holds is skipped on replay: its epoch is not newer than the restored base.
func (s *Store) drainCommits() (seqBefore uint64, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	target := s.seq
	for s.acked < target {
		s.cond.Wait()
	}
	return s.seq, s.closed
}

// --- event codec -----------------------------------------------------------

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(b []byte, v uint64) []byte {
	return appendU32(appendU32(b, uint32(v>>32)), uint32(v))
}

func appendStr(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

// appendEvent encodes one event (the plaintext body sealed into a record). A
// publish is its document and epoch, then 0, or 1 and its outcome
// (appendOutcome).
func appendEvent(b []byte, ev pubsub.StateEvent) []byte {
	b = append(b, byte(ev.Kind))
	switch ev.Kind {
	case pubsub.StateEventRegister:
		b = appendStr(b, ev.Nym)
		conds := make([]string, 0, len(ev.Cells))
		for c := range ev.Cells {
			conds = append(conds, c)
		}
		sort.Strings(conds)
		b = appendU32(b, uint32(len(conds)))
		for _, c := range conds {
			b = appendStr(b, c)
			b = appendU64(b, uint64(ev.Cells[c]))
		}
	case pubsub.StateEventRevokeSubscription:
		b = appendStr(b, ev.Nym)
	case pubsub.StateEventRevokeCredential:
		b = appendStr(b, ev.Nym)
		b = appendStr(b, ev.Cond)
	case pubsub.StateEventPublish:
		b = appendStr(b, ev.Doc)
		b = appendU64(b, ev.Epoch)
		if ev.Outcome == nil {
			return append(b, 0)
		}
		b = appendOutcome(append(b, 1), ev.Outcome)
	}
	return b
}

// appendOutcome encodes a publish's outcome: its delta as the stream frame
// the hub ships (wire.MarshalDeltaFrame), then what the frame does not carry.
//
//	outcome = len:u32 ‖ delta frame
//	        ‖ u32 n { str subdoc ‖ digest:32 }
//	        ‖ u32 n { str id ‖ key:u64 ‖ str sig ‖ u32 n { str shard id } }   rebuilt configurations
//	        ‖ u32 n { str id ‖ str sig ‖ key:u64 }                           solved shards
func appendOutcome(b []byte, o *pubsub.PublishOutcome) []byte {
	frame := wire.MarshalDeltaFrame(o.Delta)
	b = append(appendU32(b, uint32(len(frame))), frame...)
	b = appendU32(b, uint32(len(o.Digests)))
	for _, sd := range slices.Sorted(maps.Keys(o.Digests)) {
		dg := o.Digests[sd]
		b = append(appendStr(b, sd), dg[:]...)
	}
	b = appendU32(b, uint32(len(o.Configs)))
	for _, sc := range o.Configs {
		b = appendStr(appendU64(appendStr(b, sc.ID), uint64(sc.Key)), sc.Sig)
		b = appendU32(b, uint32(len(sc.Shards)))
		for _, id := range sc.Shards {
			b = appendStr(b, id)
		}
	}
	b = appendU32(b, uint32(len(o.Shards)))
	for _, sh := range o.Shards {
		b = appendU64(appendStr(appendStr(b, sh.ID), sh.Sig), uint64(sh.Key))
	}
	return b
}

// evErr maps a codec decode error into the store's corruption sentinel.
func evErr(err error) error {
	return fmt.Errorf("%w: bad event encoding: %v", ErrCorrupt, err)
}

// decodeEvent decodes one sealed record body. Only shape is validated here;
// the publisher applies semantic validation (CSS range, nym caps, policy
// membership) when the event is replayed.
func decodeEvent(buf []byte) (pubsub.StateEvent, error) {
	r := codec.NewReader(buf, nil)
	var ev pubsub.StateEvent
	kind, err := r.U8()
	if err != nil {
		return ev, evErr(err)
	}
	ev.Kind = pubsub.StateEventKind(kind)
	switch ev.Kind {
	case pubsub.StateEventRegister:
		if ev.Nym, err = r.Str(maxEventString); err != nil {
			return ev, evErr(err)
		}
		n, err := r.Len(maxEventCells)
		if err != nil {
			return ev, fmt.Errorf("%w: event cell count exceeds limits: %v", ErrCorrupt, err)
		}
		ev.Cells = make(map[string]core.CSS, n)
		for i := 0; i < n; i++ {
			cond, err := r.Str(maxEventString)
			if err != nil {
				return ev, evErr(err)
			}
			css, err := r.U64()
			if err != nil {
				return ev, evErr(err)
			}
			ev.Cells[cond] = core.CSS(css)
		}
	case pubsub.StateEventRevokeSubscription:
		if ev.Nym, err = r.Str(maxEventString); err != nil {
			return ev, evErr(err)
		}
	case pubsub.StateEventRevokeCredential:
		if ev.Nym, err = r.Str(maxEventString); err != nil {
			return ev, evErr(err)
		}
		if ev.Cond, err = r.Str(maxEventString); err != nil {
			return ev, evErr(err)
		}
	case pubsub.StateEventPublish:
		if ev.Doc, err = r.Str(maxEventString); err != nil {
			return ev, evErr(err)
		}
		if ev.Epoch, err = r.U64(); err != nil {
			return ev, evErr(err)
		}
		switch has, err := r.U8(); {
		case err != nil:
			return ev, evErr(err)
		case has == 1:
			if ev.Outcome, err = decodeOutcome(r, ev.Doc, ev.Epoch); err != nil {
				return ev, err
			}
		case has != 0:
			return ev, fmt.Errorf("%w: bad publish outcome flag %d", ErrCorrupt, has)
		}
	default:
		return ev, fmt.Errorf("%w: unknown event kind %d", ErrCorrupt, kind)
	}
	if r.Remaining() != 0 {
		return ev, fmt.Errorf("%w: event has trailing bytes", ErrCorrupt)
	}
	return ev, nil
}

// decodeOutcome decodes the outcome of the publish of doc at epoch. Its frame
// must decode (wire.UnmarshalFrame, with the hub's clamps and budget) to a
// delta of doc to epoch; counts are clamped by the input left, a key must
// arrive reduced and a subdocument be listed once. Whether the
// outcome fits the restored state is replay's question.
func decodeOutcome(r *codec.Reader, doc string, epoch uint64) (*pubsub.PublishOutcome, error) {
	n, err := r.Len(r.Remaining())
	if err != nil {
		return nil, evErr(err)
	}
	raw, _ := r.Take(n)
	f, err := wire.UnmarshalFrame(raw)
	if err != nil {
		return nil, evErr(err)
	}
	if f.Delta == nil || f.Delta.DocName != doc || f.Delta.Epoch != epoch {
		return nil, fmt.Errorf("%w: publish outcome is no delta of %q to epoch %d", ErrCorrupt, doc, epoch)
	}
	o := &pubsub.PublishOutcome{
		Delta:   f.Delta,
		Digests: make(map[string][32]byte),
	}
	elem := func() (ff64.Elem, error) {
		v, err := r.U64()
		if err == nil && v >= ff64.Modulus {
			err = errors.New("key not a reduced field element")
		}
		return ff64.Elem(v), err
	}
	if n, err = r.Len(r.Remaining()); err != nil {
		return nil, evErr(err)
	}
	for i := 0; i < n; i++ {
		sd, err := r.Str(maxEventString)
		if err != nil {
			return nil, evErr(err)
		}
		dg, err := r.Take(32)
		if err != nil {
			return nil, evErr(err)
		}
		if _, dup := o.Digests[sd]; dup {
			return nil, fmt.Errorf("%w: publish outcome lists subdocument %q twice", ErrCorrupt, sd)
		}
		o.Digests[sd] = [32]byte(dg)
	}
	if n, err = r.Len(r.Remaining()); err != nil {
		return nil, evErr(err)
	}
	for i := 0; i < n; i++ {
		var sc pubsub.SolvedConfig
		if sc.ID, err = r.Str(maxEventString); err != nil {
			return nil, evErr(err)
		}
		if sc.Key, err = elem(); err != nil {
			return nil, evErr(err)
		}
		if sc.Sig, err = r.Str(maxEventString); err != nil {
			return nil, evErr(err)
		}
		ns, err := r.Len(r.Remaining())
		if err != nil {
			return nil, evErr(err)
		}
		for j := 0; j < ns; j++ {
			id, err := r.Str(maxEventString)
			if err != nil {
				return nil, evErr(err)
			}
			sc.Shards = append(sc.Shards, id)
		}
		o.Configs = append(o.Configs, sc)
	}
	if n, err = r.Len(r.Remaining()); err != nil {
		return nil, evErr(err)
	}
	for i := 0; i < n; i++ {
		var sh pubsub.SolvedShard
		if sh.ID, err = r.Str(maxEventString); err != nil {
			return nil, evErr(err)
		}
		if sh.Sig, err = r.Str(maxEventString); err != nil {
			return nil, evErr(err)
		}
		if sh.Key, err = elem(); err != nil {
			return nil, evErr(err)
		}
		o.Shards = append(o.Shards, sh)
	}
	return o, nil
}
