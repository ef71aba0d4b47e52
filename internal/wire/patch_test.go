package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/pubsub"
)

// TestGroupedPatchBytes pins what a grouped patch costs: the nonce, the shard
// count, a wrap per shard and the exception count, then per exception its
// index and source — a base index for a shard kept at another index, a
// sentinel and the sub-header for one shipped, with its revision only when it
// is not the delta's epoch. A shard kept at its own index costs its wrap alone.
func TestGroupedPatchBytes(t *testing.T) {
	const epoch = 9
	hs := []*core.Header{hdrSeeded(testSeed(1), 4), hdrSeeded(testSeed(1), 6)}
	patch := &pubsub.GroupedPatch{
		RekeyNonce: bytes.Repeat([]byte{3}, core.NonceSize),
		Wraps:      []ff64.Elem{1, 2, 3, 4, 5, 6},
		From:       []int{0, 1, -1, 2, 4, -1}, // kept, kept, shipped, moved, kept, shipped
		Headers:    hs,
		Revs:       []uint64{epoch, 7},
	}
	d := &pubsub.BroadcastDelta{DocName: "doc", BaseEpoch: 5, Epoch: epoch, Gen: 2,
		Configs: []pubsub.ConfigPatch{{Key: "k", Rev: epoch, Grouped: patch}}}
	raw := MarshalDeltaFrame(d)
	empty := MarshalDeltaFrame(&pubsub.BroadcastDelta{DocName: "doc", BaseEpoch: 5, Epoch: epoch, Gen: 2,
		Configs: []pubsub.ConfigPatch{{Key: "k", Rev: epoch}}})
	shipped := func(h *core.Header) int { return 4 + 8*len(h.X) + 4 }
	want := len(empty) + 40 + // one run entry
		4 + core.NonceSize + 4 + 6*8 + 4 + // nonce, shard count, wraps, exception count
		(4 + 4) + // shard 3 moved to base 2
		(4 + 4 + shipped(hs[0])) + // shard 2 shipped at the epoch
		(4 + 4 + 8 + shipped(hs[1])) // shard 5 shipped at revision 7
	if len(raw) != want {
		t.Errorf("grouped patch frame is %d B, want %d", len(raw), want)
	}
	f, err := UnmarshalFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Delta, d) {
		t.Errorf("decoded patch differs:\n got %+v\nwant %+v", f.Delta.Configs[0].Grouped, patch)
	}
}

// TestAppliedStateMarshalsLikeTheOrigin: a relay holds what it applied, and
// marshals a joiner's snapshot from it. Its shard revisions are derived, not
// received; across one-epoch deltas and catch-ups over several, decoded from
// their frames and applied to a decoded snapshot, the state it reaches must
// marshal to the publisher's snapshot frame byte for byte.
func TestAppliedStateMarshalsLikeTheOrigin(t *testing.T) {
	pub, publish, _ := streamEnv(t, 40, 2, 4)
	decode := func(raw []byte) *Frame {
		t.Helper()
		f, err := UnmarshalFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	b := publish()
	published := []*pubsub.Broadcast{b}
	stream := []*pubsub.Broadcast{decode(MarshalSnapshotFrame(b)).Snapshot}
	leaves := 0
	for step := 0; step < 12; step++ {
		if step%4 != 3 {
			if err := pub.RevokeSubscription(fmt.Sprintf("pn-%d", 3*leaves+1)); err != nil {
				t.Fatal(err)
			}
			leaves++
		}
		cur := publish()
		want := MarshalSnapshotFrame(cur)
		var next *pubsub.Broadcast // cur as a stream reaches it, one epoch at a time
		for back := 1; back <= min(3, len(published)); back++ {
			d, err := pubsub.Diff(published[len(published)-back], cur)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decode(MarshalDeltaFrame(d)).Delta.Apply(stream[len(stream)-back])
			if err != nil {
				t.Fatalf("step %d, %d epochs back: %v", step, back, err)
			}
			if !bytes.Equal(MarshalSnapshotFrame(got), want) {
				t.Fatalf("step %d: the state applied over %d epochs marshals another snapshot than the origin's", step, back)
			}
			if back == 1 {
				next = got
			}
		}
		published, stream = append(published, cur), append(stream, next)
	}
}

// exception is one entry of a hand-written grouped patch: an index and a
// source, then for a shipped shard its revision (when rev is set) and an
// |X| = 1 sub-header, which references no run.
type exception struct {
	index, from uint32
	rev         *uint64
}

// patchFrame writes a delta frame to epoch 9 holding one grouped patch of
// shards shards and the exceptions given, bypassing writeGroupedPatch.
func patchFrame(shards uint32, exceptions ...exception) []byte {
	var w writer
	w.u8(VersionStream)
	w.u8(byte(FrameDelta))
	w.u32(0) // no runs
	w.str("doc")
	w.u64(5)
	w.u64(9)
	w.u64(2)
	w.u8(0)
	w.u32(1)
	w.str("k")
	w.u64(9)
	w.u8(2)
	w.bytes(bytes.Repeat([]byte{3}, core.NonceSize))
	w.u32(shards)
	for i := uint32(0); i < shards; i++ {
		w.u64(uint64(i))
	}
	w.u32(uint32(len(exceptions)))
	for _, e := range exceptions {
		w.u32(e.index)
		w.u32(e.from)
		if e.from == fromFresh || e.from == fromFreshAt {
			if e.rev != nil {
				w.u64(*e.rev)
			}
			w.vec([]ff64.Elem{7})
		}
	}
	w.u32(0)
	w.u32(0)
	w.u32(0)
	return append([]byte(nil), w.out()...)
}

// hostilePatches is every way a grouped patch can break its one encoding or
// its clamps. The decoder must refuse each; FuzzFrame starts from them too.
func hostilePatches() map[string][]byte {
	rev := func(v uint64) *uint64 { return &v }
	return map[string][]byte{
		"no shards":                     patchFrame(0),
		"exceptions out of order":       patchFrame(3, exception{index: 2, from: 0}, exception{index: 1, from: fromFresh}),
		"one shard named twice":         patchFrame(3, exception{index: 1, from: 0}, exception{index: 1, from: 2}),
		"exception past the shards":     patchFrame(3, exception{index: 3, from: fromFresh}),
		"more exceptions than shards":   patchFrame(1, exception{index: 0, from: fromFresh}, exception{index: 1, from: fromFresh}),
		"reference to its own index":    patchFrame(3, exception{index: 1, from: 1}),
		"base index past the clamp":     patchFrame(3, exception{index: 1, from: maxGroupShards + 1}),
		"the delta's epoch written out": patchFrame(3, exception{index: 1, from: fromFreshAt, rev: rev(9)}),
		"re-solved after the delta":     patchFrame(3, exception{index: 1, from: fromFreshAt, rev: rev(10)}),
		"revision missing":              patchFrame(3, exception{index: 1, from: fromFreshAt}),
	}
}

// TestGroupedPatchHardening: a well-formed hand-written patch decodes and
// re-marshals to its bytes, so what the decoder refuses below it refuses for
// the one defect each frame carries; and a version-5 frame is refused by name.
func TestGroupedPatchHardening(t *testing.T) {
	good := patchFrame(4, exception{index: 0, from: 2}, exception{index: 1, from: fromFresh},
		exception{index: 3, from: fromFreshAt, rev: new(uint64)})
	f, err := UnmarshalFrame(good)
	if err != nil {
		t.Fatal(err)
	}
	if p := f.Delta.Configs[0].Grouped; !reflect.DeepEqual(p.From, []int{2, -1, 2, -1}) || !reflect.DeepEqual(p.Revs, []uint64{9, 0}) {
		t.Fatalf("hand-written patch decodes to From %v Revs %v", p.From, p.Revs)
	}
	if !bytes.Equal(MarshalDeltaFrame(f.Delta), good) {
		t.Fatal("hand-written patch does not re-marshal to its bytes")
	}
	for name, raw := range hostilePatches() {
		if _, err := UnmarshalFrame(raw); err == nil {
			t.Errorf("%s: frame accepted", name)
		}
	}
	if _, err := UnmarshalFrame(hostilePatches()["base index past the clamp"]); !errors.Is(err, ErrOversize) {
		t.Errorf("base index past the clamp: %v, want ErrOversize", err)
	}
	v5 := append([]byte(nil), good...)
	v5[0] = 5
	if _, err := UnmarshalFrame(v5); !errors.Is(err, ErrBadVersion) || !strings.Contains(err.Error(), "version 5") {
		t.Errorf("version-5 frame: %v, want ErrBadVersion naming version 5", err)
	}
}

// TestDecodedBroadcastsDiffLikeTheOriginals: a relay diffs the broadcasts it
// decoded from frames, which share no object with the publisher's or with
// each other. Over decoded copies of two consecutive grouped broadcasts —
// one shard kept in place, one moved, one re-solved, and an alias holding its
// representative's build — Diff must write the delta frame Diff over the
// originals writes, byte for byte; every decoded header keeps its name.
func TestDecodedBroadcastsDiffLikeTheOriginals(t *testing.T) {
	s1, s2 := testSeed(1), testSeed(2)
	kept, moved, dropped, fresh := hdrSeeded(s1, 3), hdrSeeded(s1, 4), hdrSeeded(s1, 5), hdrSeeded(s2, 3)
	broadcast := func(epoch uint64, nonce byte, hs []*core.Header, revs []uint64) *pubsub.Broadcast {
		g := &core.GroupedHeader{RekeyNonce: bytes.Repeat([]byte{nonce}, core.NonceSize)}
		for i, h := range hs {
			g.Shards = append(g.Shards, core.GroupShard{Hdr: h, Wrap: ff64.Elem(100*epoch + uint64(i))})
		}
		return &pubsub.Broadcast{DocName: "doc", Epoch: epoch, Gen: 3,
			Policies: []pubsub.PolicyInfo{{ID: "acp0", CondIDs: []string{"c0"}}, {ID: "acp1", CondIDs: []string{"c1"}}},
			Configs: []pubsub.ConfigInfo{
				{Key: "acp0", Rev: epoch, Grouped: g, ShardRevs: revs},
				{Key: "acp0|acp1", Rev: epoch, Grouped: g, ShardRevs: revs}, // an alias of acp0's build
			},
			Items: []pubsub.Item{{Subdoc: "s", Config: "acp0", Ciphertext: []byte{byte(epoch)}, Rev: epoch}},
		}
	}
	base := broadcast(4, 1, []*core.Header{kept, moved, dropped}, []uint64{1, 2, 4})
	cur := broadcast(5, 2, []*core.Header{kept, fresh, moved}, []uint64{1, 5, 2})
	decoded := func(b *pubsub.Broadcast) *pubsub.Broadcast {
		t.Helper()
		f, err := UnmarshalFrame(MarshalSnapshotFrame(b))
		if err != nil {
			t.Fatal(err)
		}
		for i, ci := range f.Snapshot.Configs {
			if ci.Grouped.Name() != b.Configs[i].Grouped.Name() {
				t.Fatalf("configuration %q lost its grouped header's name across the frame", ci.Key)
			}
			for j, sh := range ci.Grouped.Shards {
				if sh.Hdr == b.Configs[i].Grouped.Shards[j].Hdr || sh.Hdr.Name() != b.Configs[i].Grouped.Shards[j].Hdr.Name() {
					t.Fatalf("configuration %q shard %d: decoded to the same object, or lost its name", ci.Key, j)
				}
			}
		}
		return f.Snapshot
	}
	want, err := pubsub.Diff(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if p := want.Configs[0].Grouped; !reflect.DeepEqual(p.From, []int{0, -1, 1}) {
		t.Fatalf("the originals' patch references %v, want a kept, a shipped and a moved shard", p.From)
	}
	got, err := pubsub.Diff(decoded(base), decoded(cur))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalDeltaFrame(got), MarshalDeltaFrame(want)) {
		t.Errorf("Diff over decoded broadcasts writes another delta frame: references %v, want %v",
			got.Configs[0].Grouped.From, want.Configs[0].Grouped.From)
	}
}
