package wire

import (
	"bytes"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
)

// fuzzHeader builds a well-shaped ACV header (|X| = n+1, reduced elements,
// NonceSize nonces) without any crypto, so the seed corpus stays cheap and
// deterministic across runs.
func fuzzHeader(n int) *core.Header {
	h := &core.Header{X: make(linalg.Vector, n+1), Zs: make([][]byte, n)}
	for i := range h.X {
		h.X[i] = ff64.Elem(uint64(i + 1))
	}
	for i := range h.Zs {
		z := make([]byte, core.NonceSize)
		z[0] = byte(i + 1)
		h.Zs[i] = z
	}
	return h
}

func fuzzSnapshot() *pubsub.Broadcast {
	return &pubsub.Broadcast{
		DocName:  "doc",
		Epoch:    3,
		Gen:      9,
		Policies: []pubsub.PolicyInfo{{ID: "p0", CondIDs: []string{"attr0 >= 1", "attr1 >= 2"}}},
		Configs: []pubsub.ConfigInfo{
			{Key: "cfg-plain", Rev: 2, Header: fuzzHeader(2)},
			{Key: "cfg-grouped", Rev: 3, ShardRevs: []uint64{1, 3}, Grouped: &core.GroupedHeader{
				RekeyNonce: bytes.Repeat([]byte{7}, core.NonceSize),
				Shards: []core.GroupShard{
					{Hdr: fuzzHeader(1), Wrap: 5},
					{Hdr: fuzzHeader(2), Wrap: 6},
				},
			}},
			{Key: "cfg-empty", Rev: 1},
		},
		Items: []pubsub.Item{{Subdoc: "s0", Config: "cfg-plain", Ciphertext: []byte("ct"), Rev: 2}},
	}
}

func fuzzDelta() *pubsub.BroadcastDelta {
	return &pubsub.BroadcastDelta{
		DocName:         "doc",
		BaseEpoch:       3,
		Epoch:           4,
		Gen:             9,
		PoliciesChanged: true,
		Policies:        []pubsub.PolicyInfo{{ID: "p0", CondIDs: []string{"attr0 >= 1"}}},
		Configs: []pubsub.ConfigPatch{
			{Key: "cfg-plain", Rev: 4, Header: fuzzHeader(2)},
			{Key: "cfg-grouped", Rev: 4, Grouped: &pubsub.GroupedPatch{
				RekeyNonce: bytes.Repeat([]byte{8}, core.NonceSize),
				Wraps:      []ff64.Elem{11, 12, 13, 14},
				From:       []int{0, -1, 1, -1},
				Headers:    []*core.Header{fuzzHeader(1), fuzzHeader(2)},
				Revs:       []uint64{4, 2},
			}},
		},
		RemovedConfigs: []policy.ConfigKey{"cfg-old"},
		Items:          []pubsub.Item{{Subdoc: "s0", Config: "cfg-plain", Ciphertext: []byte("ct2"), Rev: 4}},
		RemovedItems:   []string{"s9"},
	}
}

// FuzzFrame drives the stream-frame decoder with arbitrary bytes, seeded
// with well-formed snapshot, delta and heartbeat frames — headers sharing
// runs, extending them and sharing nothing, runs named by a seed and runs
// written out, nonces of several lengths — their truncated and bit-flipped
// variants, and the hostile run tables of hostileFrames. The decoder must
// never panic, and every frame it accepts must re-marshal byte-identically —
// the canonicality the fan-out tier relies on when it reuses one marshaled
// frame for every subscriber.
func FuzzFrame(f *testing.F) {
	mixed := mixedSessionSnapshot(7)
	uneven := snapshotOf(pubsub.ConfigInfo{Key: "h", Rev: 1, Header: hdrOn([][]byte{{1, 2}, {3}, {}}, 3)})
	seeds := [][]byte{
		MarshalSnapshotFrame(everyRunForm()),
		MarshalDeltaFrame(deltaOf(everyRunForm())),
		MarshalSnapshotFrame(uneven),
		MarshalHeartbeatFrame(42),
		MarshalSnapshotFrame(fuzzSnapshot()),
		MarshalDeltaFrame(fuzzDelta()),
		MarshalSnapshotFrame(mixed),
		MarshalDeltaFrame(deltaOf(mixed)),
	}
	for _, raw := range hostileFrames() {
		f.Add(raw)
	}
	for _, raw := range hostilePatches() {
		f.Add(raw)
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(append([]byte(nil), s[:len(s)-3]...))
		flip := append([]byte(nil), s...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte{VersionStream})
	f.Add([]byte{VersionStream, byte(FrameDelta)})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		var re []byte
		switch fr.Type {
		case FrameSnapshot:
			if fr.Snapshot == nil || fr.Epoch != fr.Snapshot.Epoch {
				t.Fatalf("accepted snapshot frame with epoch %d, snapshot %+v", fr.Epoch, fr.Snapshot)
			}
			re = MarshalSnapshotFrame(fr.Snapshot)
		case FrameDelta:
			if fr.Delta == nil || fr.Epoch != fr.Delta.Epoch {
				t.Fatalf("accepted delta frame with epoch %d, delta %+v", fr.Epoch, fr.Delta)
			}
			re = MarshalDeltaFrame(fr.Delta)
		case FrameHeartbeat:
			re = MarshalHeartbeatFrame(fr.Epoch)
		default:
			t.Fatalf("accepted frame with unknown type %d", fr.Type)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted frame is not canonical: %d input bytes re-marshal to %d", len(data), len(re))
		}
	})
}
