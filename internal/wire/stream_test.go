package wire

import (
	"testing"

	"ppcd/internal/benchutil"
	"ppcd/internal/core"
	"ppcd/internal/g2"
	"ppcd/internal/idtoken"
	"ppcd/internal/linalg"
	"ppcd/internal/pedersen"
	"ppcd/internal/pubsub"
)

// streamEnv builds a grouped publisher over a synthetic loaded table —
// the crypto-free workload the publish benchmarks use. Subdocuments are
// small (128 B): the streaming acceptance criteria are about HEADER
// dissemination cost (the quantity of the paper's Fig. 5), and a leave
// necessarily re-ships the affected configurations' ciphertexts whatever
// their size.
func streamEnv(t *testing.T, subs, policies, groupSize int) (*pubsub.Publisher, func() *pubsub.Broadcast, string) {
	t.Helper()
	params, err := pedersen.Setup(g2.MustPaperCurve(), []byte("wire-stream-test"))
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := idtoken.NewManager(params)
	if err != nil {
		t.Fatal(err)
	}
	acps, doc, rows, err := benchutil.Workload(subs, policies, subs/2, 128)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pubsub.NewPublisher(params, mgr.PublicKey(), acps, pubsub.Options{Ell: 8, GroupSize: groupSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := benchutil.Load(pub, rows); err != nil {
		t.Fatal(err)
	}
	publish := func() *pubsub.Broadcast {
		b, err := pub.Publish(doc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return pub, publish, "pn-0"
}

func broadcastEq(t *testing.T, a, b *pubsub.Broadcast) {
	t.Helper()
	if a.DocName != b.DocName || a.Epoch != b.Epoch {
		t.Fatalf("broadcast identity differs: (%q,%d) vs (%q,%d)", a.DocName, a.Epoch, b.DocName, b.Epoch)
	}
	if len(a.Configs) != len(b.Configs) || len(a.Items) != len(b.Items) || len(a.Policies) != len(b.Policies) {
		t.Fatalf("broadcast shape differs")
	}
	for i := range a.Configs {
		ca, cb := a.Configs[i], b.Configs[i]
		if ca.Key != cb.Key || ca.Rev != cb.Rev {
			t.Fatalf("config %d identity differs", i)
		}
		if (ca.Grouped == nil) != (cb.Grouped == nil) || (ca.Header == nil) != (cb.Header == nil) {
			t.Fatalf("config %d header kind differs", i)
		}
		if len(ca.ShardRevs) != len(cb.ShardRevs) {
			t.Fatalf("config %d shard revs differ", i)
		}
		for j := range ca.ShardRevs {
			if ca.ShardRevs[j] != cb.ShardRevs[j] {
				t.Fatalf("config %d shard rev %d differs", i, j)
			}
		}
	}
}

// TestSnapshotFrameRoundTrip: a grouped, epoch-stamped broadcast survives
// the snapshot frame byte-for-byte in all revision metadata, and the
// round-tripped frame re-marshals to identical bytes.
func TestSnapshotFrameRoundTrip(t *testing.T) {
	_, publish, _ := streamEnv(t, 12, 3, 4)
	b := publish()
	raw := MarshalSnapshotFrame(b)
	f, err := UnmarshalFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameSnapshot || f.Snapshot == nil || f.Epoch != b.Epoch {
		t.Fatalf("frame = %+v", f)
	}
	broadcastEq(t, b, f.Snapshot)
	raw2 := MarshalSnapshotFrame(f.Snapshot)
	if string(raw) != string(raw2) {
		t.Error("snapshot frame does not re-marshal byte-identically")
	}
}

// TestDeltaFrameRoundTripAndApply: a churn delta survives the delta frame and
// still applies cleanly to a wire-decoded base snapshot.
func TestDeltaFrameRoundTripAndApply(t *testing.T) {
	pub, publish, victim := streamEnv(t, 12, 3, 4)
	b1 := publish()
	if err := pub.RevokeSubscription(victim); err != nil {
		t.Fatal(err)
	}
	b2 := publish()
	d, err := pubsub.Diff(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	raw := MarshalDeltaFrame(d)
	f, err := UnmarshalFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameDelta || f.Delta == nil || f.Epoch != b2.Epoch {
		t.Fatalf("frame = %+v", f)
	}
	if string(MarshalDeltaFrame(f.Delta)) != string(raw) {
		t.Error("delta frame does not re-marshal byte-identically")
	}

	// Apply the decoded delta to a wire-decoded base state (the streaming
	// client's situation: no pointers shared with the publisher).
	baseFrame, err := UnmarshalFrame(MarshalSnapshotFrame(b1))
	if err != nil {
		t.Fatal(err)
	}
	patched, err := f.Delta.Apply(baseFrame.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	broadcastEq(t, b2, patched)
}

func TestHeartbeatFrameRoundTrip(t *testing.T) {
	f, err := UnmarshalFrame(MarshalHeartbeatFrame(42))
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameHeartbeat || f.Epoch != 42 {
		t.Fatalf("frame = %+v", f)
	}
}

// TestFrameDecodeHardening drives the frame decoder through the malformed
// inputs the budget discipline must reject without over-allocating.
func TestFrameDecodeHardening(t *testing.T) {
	pub, publish, victim := streamEnv(t, 8, 2, 4)
	b1 := publish()
	if err := pub.RevokeSubscription(victim); err != nil {
		t.Fatal(err)
	}
	b2 := publish()
	d, err := pubsub.Diff(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	snap := MarshalSnapshotFrame(b2)
	delta := MarshalDeltaFrame(d)

	// Truncations at every boundary must error, never panic.
	for _, raw := range [][]byte{snap, delta} {
		for cut := 0; cut < len(raw); cut += 7 {
			if _, err := UnmarshalFrame(raw[:cut]); err == nil {
				t.Fatalf("truncated frame of %d/%d bytes decoded", cut, len(raw))
			}
		}
	}

	// Unknown version / frame type.
	if _, err := UnmarshalFrame([]byte{9, 1}); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := UnmarshalFrame([]byte{VersionStream, 9}); err == nil {
		t.Error("bad frame type accepted")
	}

	// Trailing garbage.
	if _, err := UnmarshalFrame(append(append([]byte(nil), snap...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}

	// The truncations above cut through a grouped patch; the defects a patch
	// can carry whole are TestGroupedPatchHardening's.
	var found bool
	for _, cp := range d.Configs {
		if cp.Grouped != nil {
			found = true
		}
	}
	if !found {
		t.Fatal("test workload produced no grouped patch")
	}
}

// TestDeltaByteRatioSingleLeave256 is the acceptance criterion of the
// streaming dissemination work: at 256 subscribers with grouping degree 4,
// the delta for a single-leave churn publish must ship a small fraction of
// what the snapshot's headers and ciphertexts weigh as built (Header.Size —
// every header with its own nonces, which is what a snapshot frame shipped
// before the run table). Measured: 882 B of 19 460 B, held to 5 %. The frame
// itself ships a session's nonces as one 40-byte seed, so it weighs 7 911 B,
// nearly all of it X, and the delta — one re-solved shard of four, its X and
// one run entry, 11.1 % of it — is held to 13 %.
func TestDeltaByteRatioSingleLeave256(t *testing.T) {
	const subs, groups = 256, 4
	pub, publish, victim := streamEnv(t, subs, 5, (subs+groups-1)/groups)
	b1 := publish()
	if err := pub.RevokeSubscription(victim); err != nil {
		t.Fatal(err)
	}
	b2 := publish()
	d, err := pubsub.Diff(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	snapshotBytes := len(MarshalSnapshotFrame(b2))
	deltaBytes := len(MarshalDeltaFrame(d))
	builtBytes := 0
	for _, ci := range b2.Configs {
		builtBytes += ci.Grouped.Size()
	}
	for _, it := range b2.Items {
		builtBytes += len(it.Ciphertext)
	}
	t.Logf("single leave at %d subs, g=%d: delta %d B vs snapshot %d B (%.1f%%), %d B as built",
		subs, groups, deltaBytes, snapshotBytes, 100*float64(deltaBytes)/float64(snapshotBytes), builtBytes)
	if deltaBytes*20 > builtBytes {
		t.Errorf("single-leave delta is %d B, more than 5%% of the %d B the snapshot weighs as built", deltaBytes, builtBytes)
	}
	if deltaBytes*100 > snapshotBytes*13 {
		t.Errorf("single-leave delta is %d B, more than 13%% of the %d B snapshot frame", deltaBytes, snapshotBytes)
	}
	// And a steady-state delta is near-free: frame header + doc name only.
	b3 := publish()
	d2, err := pubsub.Diff(b2, b3)
	if err != nil {
		t.Fatal(err)
	}
	if steady := len(MarshalDeltaFrame(d2)); steady > 128 {
		t.Errorf("steady-state delta frame is %d B, want ≤ 128", steady)
	}
}

// TestFrameByteBudget pins Fig. 5 as shipped. An ungrouped single-leave delta
// at N = 512 — the paper's one ACV per configuration, the paper-direct
// workload — is its X, a run reference, one 40-byte run entry, its items and
// a fixed envelope: 8 160 bytes less than the 8 + 16·512 the run cost written
// out. A grouped snapshot of k shards solved in k different sessions pays
// 40·k for its runs.
func TestFrameByteBudget(t *testing.T) {
	const n = 512
	pub, publish, victim := streamEnv(t, n+1, 1, 0)
	b1 := publish()
	if err := pub.RevokeSubscription(victim); err != nil {
		t.Fatal(err)
	}
	b2 := publish()
	d, err := pubsub.Diff(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Configs) != 1 || d.Configs[0].Header == nil || d.Configs[0].Header.N() != n || len(d.Items) != 1 {
		t.Fatalf("single leave patched %d configurations and %d items", len(d.Configs), len(d.Items))
	}
	hdr, it := d.Configs[0].Header, d.Items[0]
	items := 4 + len(it.Subdoc) + 4 + len(it.Config) + 4 + len(it.Ciphertext) + 8
	envelope := 2 + 4 + // version, type, run count
		4 + len(d.DocName) + 8 + 8 + 8 + 1 + // document, base epoch, epoch, generation, policies unchanged
		4 + 4 + len(d.Configs[0].Key) + 8 + 1 + 4 + // one patch: key, revision, kind, |X|
		4 + 4 + 4 // no removed configurations, one item, no removed items
	want := 8*(n+1) + 4 + 40 + items + envelope
	if got := len(MarshalDeltaFrame(d)); got != want || hdr.WireSize() != 8*(n+1)+4+40 {
		t.Errorf("single-leave delta at N=%d is %d B (header %d as shipped), want %d = X %d + reference 4 + run entry 40 + items %d + envelope %d",
			n, got, hdr.WireSize(), want, 8*(n+1), items, envelope)
	}

	const k = 7
	var shards []*core.Header
	for i := 0; i < k; i++ {
		shards = append(shards, hdrSeeded(testSeed(byte(i)), 128))
	}
	snap := MarshalSnapshotFrame(snapshotOf(groupedOf("g", shards...)))
	r := newReader(snap[2:])
	if err := readRunTable(r); err != nil {
		t.Fatal(err)
	}
	if got := len(snap) - 2 - r.r.Remaining(); got != 4+40*k {
		t.Errorf("the run table of %d shards from %d sessions is %d B, want 4 + 40·%d", k, k, got, k)
	}
	if got, want := groupedOf("g", shards...).Grouped.WireSize(), core.NonceSize+k*(8*129+4+8+40); got != want {
		t.Errorf("GroupedHeader.WireSize = %d, want %d", got, want)
	}
}

// TestWireSizeIsFrameGrowth: a header's WireSize is what a snapshot frame
// grows by when the header joins it, beside the configuration's envelope and
// the |X| count every header opens with (TestFrameByteBudget counts both so)
// — for a header of N = 0, which has no nonce run and so neither a reference
// nor a run entry, and for one of N > 0 whose run is new to the frame;
// ungrouped, and as one more shard of a grouped configuration, where the
// shard's revision travels beside what GroupedHeader.WireSize counts.
func TestWireSizeIsFrameGrowth(t *testing.T) {
	first := hdrSeeded(testSeed(1), 3)
	for name, h := range map[string]*core.Header{
		"N=0": {X: linalg.Vector{42}},
		"N=5": hdrSeeded(testSeed(2), 5),
	} {
		one := pubsub.ConfigInfo{Key: "acp0", Rev: 3, Header: first}
		without := len(MarshalSnapshotFrame(snapshotOf(one)))
		with := len(MarshalSnapshotFrame(snapshotOf(one, pubsub.ConfigInfo{Key: "acp1", Rev: 3, Header: h})))
		envelope := 4 + len("acp1") + 8 + 1 + 4 // key, revision, kind, |X|
		if got := with - without - envelope; got != h.WireSize() {
			t.Errorf("%s: the frame grows by %d B beside the envelope, WireSize is %d", name, got, h.WireSize())
		}

		g1, g2 := groupedOf("g", first), groupedOf("g", first, h)
		grown := len(MarshalSnapshotFrame(snapshotOf(g2))) - len(MarshalSnapshotFrame(snapshotOf(g1)))
		if got, want := grown-4-8, g2.Grouped.WireSize()-g1.Grouped.WireSize(); got != want || want != h.WireSize()+8 {
			t.Errorf("%s as a shard: the frame grows by %d B beside |X| and the revision, GroupedHeader.WireSize by %d, the header's %d + a wrap", name, got, want, h.WireSize())
		}
	}
}
