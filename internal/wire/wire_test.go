package wire

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/idtoken"
	"ppcd/internal/linalg"
	"ppcd/internal/ocbe"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
)

func buildHeader(t *testing.T) (*core.Header, [][]core.CSS, ff64.Elem) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	rows := make([][]core.CSS, 4)
	for i := range rows {
		rows[i] = []core.CSS{ff64.New(rng.Uint64() | 1), ff64.New(rng.Uint64() | 1)}
	}
	hdr, key, err := core.Build(rows, 6)
	if err != nil {
		t.Fatal(err)
	}
	return hdr, rows, key
}

// throughFrame carries b across a snapshot frame and returns what decodes.
func throughFrame(t *testing.T, b *pubsub.Broadcast) *pubsub.Broadcast {
	t.Helper()
	f, err := UnmarshalFrame(MarshalSnapshotFrame(b))
	if err != nil {
		t.Fatal(err)
	}
	return f.Snapshot
}

// TestHeaderRoundTrip: a header core.Build returns — its nonces listed, no
// seed — crosses a frame with its shape and still derives the key.
func TestHeaderRoundTrip(t *testing.T) {
	hdr, rows, key := buildHeader(t)
	dec := throughFrame(t, snapshotOf(pubsub.ConfigInfo{Key: "h", Rev: 1, Header: hdr})).Configs[0].Header
	if len(dec.X) != len(hdr.X) || dec.N() != hdr.N() {
		t.Fatal("shape changed")
	}
	for i := range hdr.X {
		if dec.X[i] != hdr.X[i] {
			t.Fatal("X changed")
		}
	}
	k, err := core.DeriveKey(rows[0], dec)
	if err != nil || k != key {
		t.Fatalf("derivation through wire failed: %v", err)
	}
}

// TestHeaderRejectsCorruption: a header inside a frame is refused when its
// input is cut, padded, versioned wrongly, holds an unreduced field element
// or claims more X entries than the input has.
func TestHeaderRejectsCorruption(t *testing.T) {
	hdr, _, _ := buildHeader(t)
	enc := MarshalSnapshotFrame(snapshotOf(pubsub.ConfigInfo{Key: "h", Rev: 1, Header: hdr}))

	if _, err := UnmarshalFrame(nil); err != ErrTruncated {
		t.Errorf("empty: %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := UnmarshalFrame(bad); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
	if _, err := UnmarshalFrame(enc[:len(enc)-3]); err == nil {
		t.Error("truncated accepted")
	}
	if _, err := UnmarshalFrame(append(append([]byte(nil), enc...), 0xAA)); err == nil {
		t.Error("trailing bytes accepted")
	}
	var x0 [8]byte
	binary.BigEndian.PutUint64(x0[:], uint64(hdr.X[0]))
	at := bytes.Index(enc, x0[:])
	if at < 4 {
		t.Fatal("X[0] not found in the frame")
	}
	bad = append([]byte(nil), enc...)
	copy(bad[at:], bytes.Repeat([]byte{0xff}, 8))
	if _, err := UnmarshalFrame(bad); err == nil {
		t.Error("unreduced field element accepted")
	}
	bad = append([]byte(nil), enc...)
	copy(bad[at-4:], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := UnmarshalFrame(bad); err == nil {
		t.Error("oversize X count accepted")
	}
}

// TestHeaderShapeValidation: a header is N + 1 entries of X over the first N
// nonces of its run — an empty X, or a run too short for N, is refused.
func TestHeaderShapeValidation(t *testing.T) {
	if _, err := UnmarshalFrame(MarshalSnapshotFrame(snapshotOf(pubsub.ConfigInfo{Key: "h", Rev: 1, Header: &core.Header{}}))); err == nil {
		t.Error("header of |X| = 0 accepted")
	}
	run := testRun(1, 2, core.NonceSize)
	long := &core.Header{X: make(linalg.Vector, 4), Zs: run}
	raw := hostileFrame([]frameRun{{zs: run, n: 2}}, []uint32{0}, snapshotOf(pubsub.ConfigInfo{Key: "h", Rev: 1, Header: long}))
	if _, err := UnmarshalFrame(raw); err == nil {
		t.Error("header of N = 3 over a run of 2 accepted")
	}
}

func testBroadcast(t *testing.T) *pubsub.Broadcast {
	t.Helper()
	hdr, _, _ := buildHeader(t)
	return &pubsub.Broadcast{
		DocName: "EHR.xml",
		Epoch:   4,
		Gen:     7,
		Policies: []pubsub.PolicyInfo{
			{ID: "acp3", CondIDs: []string{"role = doc"}},
			{ID: "acp4", CondIDs: []string{"role = nur", "level >= 59"}},
		},
		Configs: []pubsub.ConfigInfo{
			{Key: policy.ConfigOf("acp3", "acp4"), Rev: 4, Header: hdr},
			{Key: policy.EmptyConfig, Rev: 1, Header: nil},
		},
		Items: []pubsub.Item{
			{Subdoc: "Plan", Config: policy.ConfigOf("acp3", "acp4"), Ciphertext: []byte{1, 2, 3}, Rev: 4},
			{Subdoc: "Other", Config: policy.EmptyConfig, Ciphertext: []byte{9}, Rev: 1},
		},
	}
}

func TestBroadcastRoundTrip(t *testing.T) {
	b := testBroadcast(t)
	dec := throughFrame(t, b)
	if dec.DocName != b.DocName || dec.Epoch != b.Epoch || dec.Gen != b.Gen {
		t.Error("document, epoch or generation changed")
	}
	if len(dec.Policies) != 2 || dec.Policies[1].CondIDs[1] != "level >= 59" {
		t.Errorf("policies changed: %+v", dec.Policies)
	}
	if len(dec.Configs) != 2 {
		t.Fatal("configs changed")
	}
	if dec.Configs[0].Header == nil || dec.Configs[1].Header != nil {
		t.Error("header presence changed")
	}
	if len(dec.Items) != 2 || !bytes.Equal(dec.Items[0].Ciphertext, []byte{1, 2, 3}) {
		t.Error("items changed")
	}
	if dec.Items[0].Config != b.Items[0].Config || dec.Items[0].Rev != b.Items[0].Rev {
		t.Error("config key or revision changed")
	}
}

func TestBroadcastDeterministic(t *testing.T) {
	b := testBroadcast(t)
	if !bytes.Equal(MarshalSnapshotFrame(b), MarshalSnapshotFrame(b)) {
		t.Error("encoding not deterministic")
	}
}

func TestBroadcastRejectsCorruption(t *testing.T) {
	enc := MarshalSnapshotFrame(testBroadcast(t))
	if _, err := UnmarshalFrame(enc[:10]); err == nil {
		t.Error("truncated accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = VersionStream + 1
	if _, err := UnmarshalFrame(bad); err != ErrBadVersion {
		t.Errorf("version: %v", err)
	}
	if _, err := UnmarshalFrame(append(enc, 0)); err == nil {
		t.Error("trailing accepted")
	}
}

func TestBroadcastFuzzResilience(t *testing.T) {
	// Random mutations must never panic, only error or decode cleanly.
	enc := MarshalSnapshotFrame(testBroadcast(t))
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		bad := append([]byte(nil), enc...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		}
		_, _ = UnmarshalFrame(bad) // must not panic
	}
	for trial := 0; trial < 200; trial++ {
		junk := make([]byte, rng.Intn(200))
		rng.Read(junk)
		_, _ = UnmarshalFrame(junk)
	}
}

func TestEndToEndThroughWire(t *testing.T) {
	// A header produced by the §V-C construction survives the wire and every
	// row it was built over still derives the key from the decoded copy.
	rows := [][]core.CSS{{ff64.New(1111)}, {ff64.New(2222)}}
	hdr, key, err := core.Build(rows, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec := throughFrame(t, snapshotOf(pubsub.ConfigInfo{Key: "h", Rev: 1, Header: hdr})).Configs[0].Header
	for _, row := range rows {
		k, err := core.DeriveKey(row, dec)
		if err != nil || k != key {
			t.Fatal("wire header does not derive")
		}
	}
}

func TestRegistrationBatchRoundTrip(t *testing.T) {
	// A synthetic batch covering both OCBE request shapes (equality: bare
	// commitment; inequality: bit commitments).
	reqs := []*pubsub.RegistrationRequest{
		{
			Token:  &idtoken.Token{Nym: "pn-1", Tag: "role", Commitment: []byte{1, 2, 3}, Sig: []byte{9}},
			CondID: "role = doc",
			OCBE:   &ocbe.Request{Commitment: []byte{1, 2, 3}},
		},
		{
			Token:  &idtoken.Token{Nym: "pn-1", Tag: "level", Commitment: []byte{4, 5}, Sig: []byte{8, 7}},
			CondID: "level >= 59",
			OCBE: &ocbe.Request{
				Commitment: []byte{4, 5},
				Bits:       []*ocbe.BitCommitments{{Cs: [][]byte{{0xa}, {0xb}, {0xc}}}},
			},
		},
	}
	enc := MarshalRequest(&Request{Kind: KindRegisterBatch, Batch: reqs})
	req, err := UnmarshalRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	dec := req.Batch
	if req.Kind != KindRegisterBatch || len(dec) != 2 {
		t.Fatalf("decoded kind %d, %d requests", req.Kind, len(dec))
	}
	if dec[0].Token.Nym != "pn-1" || dec[0].CondID != "role = doc" || !bytes.Equal(dec[0].OCBE.Commitment, []byte{1, 2, 3}) {
		t.Errorf("request 0 mangled: %+v", dec[0])
	}
	if len(dec[1].OCBE.Bits) != 1 || len(dec[1].OCBE.Bits[0].Cs) != 3 || !bytes.Equal(dec[1].OCBE.Bits[0].Cs[2], []byte{0xc}) {
		t.Errorf("bit commitments mangled: %+v", dec[1].OCBE)
	}

	// Re-encoding the decoded batch is byte-identical (deterministic format).
	if !bytes.Equal(MarshalRequest(req), enc) {
		t.Error("round trip not deterministic")
	}
}

func TestBatchReplyRoundTrip(t *testing.T) {
	neg := big.NewInt(-3)
	results := []pubsub.BatchResult{
		{CondID: "role = doc", Envelope: &ocbe.Envelope{
			Op: ocbe.EQ, X0: big.NewInt(42), Eta: []byte{1}, C: []byte{2, 3},
		}},
		{CondID: "ghost = 1", Err: "pubsub: condition not in any policy"},
		{CondID: "age != 7", Envelope: &ocbe.Envelope{
			Op: ocbe.NE, X0: big.NewInt(7),
			Sub: []*ocbe.Envelope{
				{Op: ocbe.GE, X0: big.NewInt(8), Ell: 4, Eta: []byte{4}, C: []byte{5},
					Bits: []ocbe.BitPair{{C0: []byte{6}, C1: []byte{7}}}},
				{Op: ocbe.LE, X0: neg, Ell: 4, Eta: []byte{8}, C: []byte{9}},
			},
		}},
	}
	body := MarshalBatchReply(results)
	enc := append([]byte{StatusOK}, body...)
	rep, err := UnmarshalReply(KindRegisterBatch, enc)
	if err != nil {
		t.Fatal(err)
	}
	dec := rep.Batch
	if len(dec) != 3 {
		t.Fatalf("decoded %d results", len(dec))
	}
	if dec[0].Envelope.X0.Int64() != 42 || dec[0].Envelope.Op != ocbe.EQ {
		t.Errorf("result 0 mangled: %+v", dec[0].Envelope)
	}
	if dec[1].Envelope != nil || dec[1].Err == "" {
		t.Errorf("error item mangled: %+v", dec[1])
	}
	sub := dec[2].Envelope.Sub
	if len(sub) != 2 || sub[1].X0.Int64() != -3 || len(sub[0].Bits) != 1 {
		t.Errorf("nested envelopes mangled: %+v", dec[2].Envelope)
	}
	if !bytes.Equal(MarshalBatchReply(dec), body) {
		t.Error("round trip not deterministic")
	}

	// Corruption anywhere must error, never panic.
	for i := 0; i < len(enc); i += 3 {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupt byte %d: %v", i, r)
				}
			}()
			_, _ = UnmarshalReply(KindRegisterBatch, bad)
		}()
	}
}
