package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/pubsub"
	"ppcd/internal/sym"
)

// fuzzKey is fixed so the corpus stays meaningful across runs: sealed seeds
// authenticate under it, and mutations of them exercise the paths between
// "torn", "CRC mismatch" and "authenticated but malformed inside".
func fuzzKey() [sym.KeySize]byte { return DeriveKey([]byte("store-fuzz")) }

func sealRecord(t testing.TB, seq uint64, ev pubsub.StateEvent) []byte {
	t.Helper()
	plain := make([]byte, 8, 64)
	binary.BigEndian.PutUint64(plain, seq)
	plain = appendEvent(plain, ev)
	sealed, err := sym.Encrypt(fuzzKey(), plain)
	if err != nil {
		t.Fatal(err)
	}
	rec := appendU32(nil, uint32(len(sealed)))
	rec = appendU32(rec, crc32.ChecksumIEEE(sealed))
	return append(rec, sealed...)
}

// eventLog is a journal that keeps what it is handed; its commits resolve at
// once.
type eventLog []pubsub.StateEvent

func (l *eventLog) Begin(evs []pubsub.StateEvent, apply func()) (pubsub.CommitTicket, error) {
	*l = append(*l, evs...)
	if apply != nil {
		apply()
	}
	return doneTicket{}, nil
}

type doneTicket struct{}

func (doneTicket) Wait() error { return nil }

// livePublishEvents returns the journal events of two live publishes of a
// grouped 20-row table: the cold one, whose outcome ships every shard, and one
// after a revocation, which ships the one re-solved shard.
func livePublishEvents(t testing.TB) (cold, churn pubsub.StateEvent) {
	t.Helper()
	ts := newTestSystem(t, 4)
	loadRows(t, ts.pub, 20)
	var log eventLog
	ts.pub.SetJournal(&log)
	if _, err := ts.pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if err := ts.pub.RevokeSubscription("pn-00005"); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 || log[0].Outcome == nil || log[2].Outcome == nil {
		t.Fatalf("journal holds %d events, want two publishes with outcomes around a revocation", len(log))
	}
	return log[0], log[2]
}

// FuzzWALRecord drives parseRecord with arbitrary bytes: it must never
// panic, never report a record longer than its input, and classify every
// outcome as a record, a torn tail, or corruption.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(sealRecord(f, 1, pubsub.StateEvent{Kind: pubsub.StateEventRevokeSubscription, Nym: "pn-a"}))
	f.Add(sealRecord(f, 7, pubsub.StateEvent{Kind: pubsub.StateEventRegister, Nym: "pn-b",
		Cells: map[string]core.CSS{"attr0 >= 1": 3}}))
	f.Add(sealRecord(f, 9, pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: 12}))
	torn := sealRecord(f, 2, pubsub.StateEvent{Kind: pubsub.StateEventRevokeCredential, Nym: "pn-c", Cond: "attr0 >= 1"})
	f.Add(torn[:len(torn)-3])
	flipped := append([]byte(nil), torn...)
	flipped[len(flipped)-1] ^= 0x80
	f.Add(flipped)
	cold, churn := livePublishEvents(f)
	f.Add(sealRecord(f, 3, cold))
	f.Add(sealRecord(f, 5, churn))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := parseRecord(data, fuzzKey())
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("record length %d out of range for %d input bytes", n, len(data))
		}
		// A parsed record must round-trip through the event codec.
		if _, err := decodeEvent(appendEvent(nil, rec.ev)); err != nil {
			t.Fatalf("accepted event does not re-encode: %v", err)
		}
	})
}

// FuzzEvent drives the bare event codec (the plaintext inside a sealed
// record): no panic, and anything accepted must survive a re-encode/decode
// round trip unchanged. (Byte canonicality is deliberately not required:
// Register cells arrive as a map, so a permuted-cells encoding decodes to
// the same event and re-encodes sorted.)
func FuzzEvent(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendEvent(nil, pubsub.StateEvent{Kind: pubsub.StateEventRevokeSubscription, Nym: "pn-a"}))
	f.Add(appendEvent(nil, pubsub.StateEvent{Kind: pubsub.StateEventRegister, Nym: "pn-b",
		Cells: map[string]core.CSS{"attr0 >= 1": 3, "attr1 >= 2": 5}}))
	f.Add(appendEvent(nil, pubsub.StateEvent{Kind: pubsub.StateEventRevokeCredential, Nym: "pn-c", Cond: "attr0 >= 1"}))
	f.Add(appendEvent(nil, pubsub.StateEvent{Kind: pubsub.StateEventPublish, Doc: "doc", Epoch: 12}))
	cold, churn := livePublishEvents(f)
	f.Add(appendEvent(nil, cold))
	f.Add(appendEvent(nil, churn))

	f.Fuzz(func(t *testing.T, data []byte) {
		ev, err := decodeEvent(data)
		if err != nil {
			return
		}
		ev2, err := decodeEvent(appendEvent(nil, ev))
		if err != nil {
			t.Fatalf("accepted event does not re-encode: %v", err)
		}
		if !reflect.DeepEqual(ev, ev2) {
			t.Fatalf("event round trip diverges: %+v != %+v", ev, ev2)
		}
	})
}

// FuzzManifest drives the snapshot-manifest decoder (post-AEAD plaintext —
// the layer an attacker can only reach with the operator key, but the layer
// version skew and format bugs reach for free): no panic, every accepted
// manifest re-encodes byte-identically, and its invariants hold.
func FuzzManifest(f *testing.F) {
	man := &manifest{
		walSeq:    42,
		segSlots:  4096,
		tableSegs: 2,
		cacheSegs: 1,
		files: []manFile{
			{kind: segKindMeta, index: 0, name: "seg-m0-0011223344556677.ppcd", size: 100},
			{kind: segKindTable, index: 0, name: "seg-t0-8899aabbccddeeff.ppcd", size: 2000},
			{kind: segKindTable, index: 1, name: "seg-t1-0102030405060708.ppcd", size: 2000},
			{kind: segKindCache, index: 0, name: "seg-c0-f0e0d0c0b0a09080.ppcd", size: 300},
		},
		cacheDigests: make([][32]byte, 1),
	}
	f.Add(encodeManifest(man))
	f.Add([]byte{})
	trunc := encodeManifest(man)
	f.Add(trunc[:len(trunc)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		if len(m.files) != 1+m.tableSegs+m.cacheSegs {
			t.Fatalf("accepted manifest covers %d files for %d segments", len(m.files), 1+m.tableSegs+m.cacheSegs)
		}
		for _, mf := range m.files {
			if !segFileNameOK(mf.name) {
				t.Fatalf("accepted manifest carries bad file name %q", mf.name)
			}
		}
		if !bytes.Equal(encodeManifest(m), data) {
			t.Fatal("accepted manifest is not canonical")
		}
	})
}
