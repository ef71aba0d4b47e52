package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/core/coretest"
	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
)

// testSeed is the seed of a session told apart from others by tag.
func testSeed(tag byte) []byte {
	seed := bytes.Repeat([]byte{tag}, core.SeedSize)
	seed[1] = ^tag
	return seed
}

// hdrSeeded builds a header of N = n the way the engine does and the way it
// rests everywhere: X and the seed that names its nonces.
func hdrSeeded(seed []byte, n int) *core.Header {
	h := &core.Header{X: make(linalg.Vector, n+1), Seed: seed}
	for i := range h.X {
		h.X[i] = ff64.Elem(uint64(7*n + i + 1))
	}
	return h
}

// hdrListed is hdrSeeded as core.Build returns it: the nonces listed beside
// the seed.
func hdrListed(seed []byte, n int) *core.Header {
	h := hdrSeeded(seed, n)
	h.Zs = h.Nonces()
	return h
}

// groupedOf wraps headers into a grouped config the decoder reproduces
// field for field.
func groupedOf(key string, hdrs ...*core.Header) pubsub.ConfigInfo {
	ci := pubsub.ConfigInfo{Key: policy.ConfigKey(key), Rev: 3, Grouped: &core.GroupedHeader{RekeyNonce: bytes.Repeat([]byte{9}, core.NonceSize)}}
	for i, h := range hdrs {
		ci.Grouped.Shards = append(ci.Grouped.Shards, core.GroupShard{Hdr: h, Wrap: ff64.Elem(uint64(100 + i))})
		ci.ShardRevs = append(ci.ShardRevs, uint64(i+1))
	}
	return ci
}

func snapshotOf(configs ...pubsub.ConfigInfo) *pubsub.Broadcast {
	return &pubsub.Broadcast{
		DocName:  "doc",
		Epoch:    5,
		Gen:      11,
		Policies: []pubsub.PolicyInfo{{ID: "p0", CondIDs: []string{"a >= 1"}}},
		Configs:  configs,
		Items:    []pubsub.Item{{Subdoc: "s0", Config: configs[0].Key, Ciphertext: []byte("ct"), Rev: 5}},
	}
}

// deltaOf ships the same headers as a delta: ungrouped configs as header
// patches, grouped ones as all-fresh grouped patches, each shard shipped at
// its revision, or at the delta's epoch where its revision is later.
func deltaOf(b *pubsub.Broadcast) *pubsub.BroadcastDelta {
	d := &pubsub.BroadcastDelta{DocName: b.DocName, BaseEpoch: b.Epoch - 1, Epoch: b.Epoch, Gen: b.Gen, Items: b.Items}
	for _, ci := range b.Configs {
		cp := pubsub.ConfigPatch{Key: ci.Key, Rev: ci.Rev, Header: ci.Header}
		if g := ci.Grouped; g != nil {
			cp.Grouped = &pubsub.GroupedPatch{RekeyNonce: g.RekeyNonce}
			for i, sh := range g.Shards {
				cp.Grouped.Wraps = append(cp.Grouped.Wraps, sh.Wrap)
				cp.Grouped.From = append(cp.Grouped.From, -1)
				cp.Grouped.Headers = append(cp.Grouped.Headers, sh.Hdr)
				cp.Grouped.Revs = append(cp.Grouped.Revs, min(ci.ShardRevs[i], b.Epoch))
			}
		}
		d.Configs = append(d.Configs, cp)
	}
	return d
}

// everyRunForm is a snapshot whose frame holds every shape a run takes: one
// shared by the shards of a session and lengthened by a later shard, another
// lengthened by an ungrouped header holding a copy of its seed, a run used
// alone, a header with no nonces at all and a configuration with no header.
func everyRunForm() *pubsub.Broadcast {
	s1, s2 := testSeed(1), testSeed(2)
	return snapshotOf(
		groupedOf("g", hdrSeeded(s1, 5), hdrSeeded(s2, 5), hdrSeeded(s1, 8), hdrSeeded(s2, 6)),
		pubsub.ConfigInfo{Key: "m", Rev: 1, Header: hdrSeeded(bytes.Clone(s2), 9)},
		pubsub.ConfigInfo{Key: "s3", Rev: 1, Header: hdrSeeded(testSeed(3), 1)},
		pubsub.ConfigInfo{Key: "none", Rev: 1, Header: &core.Header{X: linalg.Vector{42}}},
		pubsub.ConfigInfo{Key: "bare", Rev: 1})
}

// TestFrameRunTableRoundTrip: whatever way a frame's headers share (or do
// not share) their seeds, snapshot and delta decode to exactly the input,
// re-marshal to the same bytes, and carry each distinct run once.
func TestFrameRunTableRoundTrip(t *testing.T) {
	s1, s2, s3 := testSeed(1), testSeed(2), testSeed(3)
	cases := []struct {
		name string
		b    *pubsub.Broadcast
		runs int
	}{
		{"same session, the longer shard after the shorter", snapshotOf(
			groupedOf("g", hdrSeeded(s1, 5)), groupedOf("g2", hdrSeeded(s1, 9), hdrSeeded(s1, 3))), 1},
		{"shards of one seed with different N, sharing the run's memory", snapshotOf(
			groupedOf("g", hdrSeeded(s1, 5), hdrSeeded(s1, 9), hdrSeeded(s1, 3))), 1},
		{"one seed, nothing shared but the seed, the run lengthened by a later header", snapshotOf(
			groupedOf("g", hdrSeeded(s1, 4), hdrSeeded(bytes.Clone(s1), 9)),
			groupedOf("g2", hdrSeeded(s2, 6), hdrSeeded(s1, 7))), 2},
		{"every run shape in one frame", everyRunForm(), 3},
		{"nothing shared", snapshotOf(
			groupedOf("g", hdrSeeded(s1, 9), hdrSeeded(s2, 6)),
			pubsub.ConfigInfo{Key: "h", Rev: 2, Header: hdrSeeded(s3, 4)}), 3},
		{"equal by content, not by pointer", snapshotOf(
			groupedOf("g", hdrSeeded(s1, 4), hdrSeeded(bytes.Clone(s1), 9)),
			groupedOf("g2", hdrSeeded(s2, 6), hdrSeeded(bytes.Clone(s2), 7))), 2},
		{"one shard", snapshotOf(groupedOf("g", hdrSeeded(s1, 9))), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, frame := range []struct {
				raw  []byte
				want any
				got  func(*Frame) any
			}{
				{MarshalSnapshotFrame(tc.b), tc.b, func(f *Frame) any { return f.Snapshot }},
				{MarshalDeltaFrame(deltaOf(tc.b)), deltaOf(tc.b), func(f *Frame) any { return f.Delta }},
			} {
				f, err := UnmarshalFrame(frame.raw)
				if err != nil {
					t.Fatal(err)
				}
				if got := frame.got(f); !reflect.DeepEqual(got, frame.want) {
					t.Fatalf("decoded frame differs from its input:\n got %+v\nwant %+v", got, frame.want)
				}
				var re []byte
				if f.Snapshot != nil {
					re = MarshalSnapshotFrame(f.Snapshot)
				} else {
					re = MarshalDeltaFrame(f.Delta)
				}
				if !bytes.Equal(re, frame.raw) {
					t.Fatal("decoded frame does not re-marshal byte-identically")
				}
				if cap(frame.raw) != len(frame.raw) {
					t.Fatalf("frame of %d bytes sits in a buffer of %d", len(frame.raw), cap(frame.raw))
				}
				r := newReader(frame.raw[2:])
				if err := readRunTable(r); err != nil || len(r.runs) != tc.runs {
					t.Fatalf("frame carries %d runs (%v), want %d", len(r.runs), err, tc.runs)
				}
			}
		})
	}
}

// TestDecodedHeadersShareTheirRun: the shards of one session decode onto one
// run, the seed they share — one 32-byte copy, no nonce anywhere — whether
// they rest as X and the seed or list their nonces beside it, as core.Build
// returns them. Header.Clone copies out of it.
func TestDecodedHeadersShareTheirRun(t *testing.T) {
	seed := testSeed(1)
	for name, g := range map[string]pubsub.ConfigInfo{
		"seeded": groupedOf("g", hdrSeeded(seed, 5), hdrSeeded(seed, 9)),
		"listed": groupedOf("g", hdrListed(seed, 5), hdrListed(seed, 9)),
	} {
		f, err := UnmarshalFrame(MarshalSnapshotFrame(snapshotOf(g)))
		if err != nil {
			t.Fatal(err)
		}
		sh := f.Snapshot.Configs[0].Grouped.Shards
		short, long := sh[0].Hdr, sh[1].Hdr
		if short.Zs != nil || long.Zs != nil || &short.Seed[0] != &long.Seed[0] || !bytes.Equal(short.Seed, seed) || &short.Seed[0] == &seed[0] {
			t.Fatalf("%s: decoded headers hold nonces %v, %v or seeds %x, %x that are not one copy of the run's", name, short.Zs, long.Zs, short.Seed, long.Seed)
		}
		if !reflect.DeepEqual(short.Nonces(), long.Nonces()[:5]) || short.N() != 5 || long.N() != 9 {
			t.Fatalf("%s: the shorter header's nonces are not the front of the longer's", name)
		}
		cl := long.Clone()
		if !reflect.DeepEqual(cl, long) {
			t.Fatalf("%s: Clone differs from its source", name)
		}
		cl.X[0]++
		cl.Seed[0] ^= 0xff
		if cl.X[0] == long.X[0] || !reflect.DeepEqual(short.Seed, long.Seed) || long.Seed[0] != seed[0] {
			t.Fatalf("%s: Clone shares memory with the decoded run", name)
		}
	}
}

// goldenFrames are frames of version 6 by length and SHA-256: what rests in a
// header is this program's business, what it sends is not. A snapshot weighs
// what it weighed at version 5, whose frames were pinned before headers
// stopped holding their nonces; a grouped delta's shards ship a wrap and, where
// the base does not say it, an exception. The every-run-form pair is pinned on
// everyRunForm's seeded shapes.
var goldenFrames = map[string]struct {
	size int
	sum  string
}{
	"snapshot, every run form":            {755, "5927e0158ba1a3c3914a922cc5f84d5fa0103cc0003f3b80be5f4df752b8eab5"},
	"delta, every run form":               {780, "09ce9aa5b6bc9523edf0ff8286ef452508f2011a2223fc03e054f73d8cd9a36a"},
	"snapshot, 294 shards of 40 sessions": {307549, "48d25640b9e0892e035e7eaf1ebd4c945f4de4a934a43f1f522283fc849cd2cf"},
	"delta, 294 shards of 40 sessions":    {307606, "72d89f7d5fc95591680486a6959cdf9b6012616988bb01b60aa543fad2de7a6a"},
}

// TestFramesAreByteIdentical holds every encoder to goldenFrames.
func TestFramesAreByteIdentical(t *testing.T) {
	all, mixed := everyRunForm(), mixedSessionSnapshot(294)
	for name, raw := range map[string][]byte{
		"snapshot, every run form":            MarshalSnapshotFrame(all),
		"delta, every run form":               MarshalDeltaFrame(deltaOf(all)),
		"snapshot, 294 shards of 40 sessions": MarshalSnapshotFrame(mixed),
		"delta, 294 shards of 40 sessions":    MarshalDeltaFrame(deltaOf(mixed)),
	} {
		want := goldenFrames[name]
		if sum := sha256.Sum256(raw); len(raw) != want.size || hex.EncodeToString(sum[:]) != want.sum {
			t.Errorf("%s: %d bytes with SHA-256 %x, want %d and %s", name, len(raw), sum, want.size, want.sum)
		}
	}
}

// hostileFrame marshals b as a snapshot around a table and header references
// of the test's choosing, bypassing the table pass that would repair them.
func hostileFrame(table []frameRun, refs []uint32, b *pubsub.Broadcast) []byte {
	t := &runTable{runs: table, refs: refs}
	w := writer{runs: t}
	w.u8(VersionStream)
	w.u8(byte(FrameSnapshot))
	t.write(&w)
	writeSnapshot(&w, b)
	return append([]byte(nil), w.out()...)
}

// writtenOut is the snapshot frame of one header of N = len(run) as earlier
// encoders wrote it for a header without a seed: its run written out as
// n ‖ nonceLen ‖ the nonces or, uneven, as n ‖ ^0 ‖ every nonce's length ‖
// the nonces.
func writtenOut(run [][]byte, uneven bool) []byte {
	var w writer
	w.u8(VersionStream)
	w.u8(byte(FrameSnapshot))
	w.u32(1)
	w.u32(uint32(len(run)))
	if uneven {
		w.u32(^uint32(0))
		for _, z := range run {
			w.u32(uint32(len(z)))
		}
	} else {
		w.u32(uint32(len(run[0])))
	}
	for _, z := range run {
		w.w.Raw(z)
	}
	w.runs = &runTable{refs: []uint32{0}}
	writeSnapshot(&w, snapshotOf(pubsub.ConfigInfo{Key: "h", Header: hdrSeeded(nil, len(run))}))
	return w.out()
}

// claimedRuns is a frame of size bytes whose table claims runs seeded runs
// of n nonces each: 40 bytes of input per run, 40·n bytes of nonces and slice
// headers if the decoder expanded them.
func claimedRuns(size, runs, n int) []byte {
	var w writer
	w.u8(VersionStream)
	w.u8(byte(FrameSnapshot))
	w.u32(uint32(runs))
	for i := 0; i < runs; i++ {
		w.u32(uint32(n))
		w.u32(seededRun)
		w.w.Raw(testSeed(byte(i)))
	}
	return append(w.out(), make([]byte, size-w.w.Len())...)
}

// writtenOutFrames are frames whose run is written out, in the bytes earlier
// encoders wrote: at one nonce length, behind the marker of nonces of several
// lengths (also for nonces of one length), and thousands of runs of empty
// nonces. The decoder has no reader for either form and must refuse each,
// naming the run.
func writtenOutFrames() map[string][]byte {
	var empty writer
	empty.u8(VersionStream)
	empty.u8(byte(FrameSnapshot))
	empty.u32(2000)
	for i := 0; i < 2000; i++ {
		empty.u32(5000)
		empty.u32(0)
	}
	even := core.ExpandNonces(testSeed(1), 3)
	return map[string][]byte{
		"run written out":                   writtenOut(even, false),
		"run of 15-byte nonces written out": writtenOut([][]byte{make([]byte, 15), make([]byte, 15)}, false),
		"nonces of several lengths":         writtenOut([][]byte{{1, 2}, {3}, {}}, true),
		"one length listed nonce by nonce":  writtenOut(even, true),
		"runs of empty nonces":              append(empty.out(), make([]byte, 1<<16-empty.w.Len())...),
	}
}

// TestWrittenOutRunsAreRefused: a seed is the one run form, and a frame
// holding a run in either written-out form is refused with an error that
// names the run.
func TestWrittenOutRunsAreRefused(t *testing.T) {
	for name, raw := range writtenOutFrames() {
		if _, err := UnmarshalFrame(raw); err == nil || !strings.Contains(err.Error(), "nonce run 0") {
			t.Errorf("%s: %v, want a refusal naming nonce run 0", name, err)
		}
	}
}

// greedySeededRuns is a frame of size bytes whose table is seeded runs to the
// end of the input, each claiming the largest n the clamp allows (the first
// leaves the others nothing; they claim one nonce): 40 bytes of input per
// run, 40·n bytes of nonces and slice headers if the decoder expanded them.
func greedySeededRuns(size int) []byte {
	var w writer
	w.u8(VersionStream)
	w.u8(byte(FrameSnapshot))
	runs := (size - 6) / (8 + core.SeedSize)
	w.u32(uint32(runs))
	owed := 0
	for i := 0; i < runs; i++ {
		n := max(1, (size-w.w.Len()-owed)/8)
		owed += 8 * (n + 1)
		w.u32(uint32(n))
		w.u32(seededRun)
		w.w.Raw(testSeed(byte(i)))
	}
	return append(w.out(), make([]byte, size-w.w.Len())...)
}

// hostileFrames is every way a frame's run table can disagree with its
// headers, and every written-out run. The decoder must refuse each; FuzzFrame
// starts from them too.
func hostileFrames() map[string][]byte {
	patch := func(good []byte, off int, v ...byte) []byte {
		raw := append([]byte(nil), good...)
		copy(raw[off:], v)
		return raw
	}
	// good opens version ‖ type ‖ count(4) ‖ n(4) ‖ seededRun(4) ‖ seed(32).
	s1, s2 := testSeed(1), testSeed(2)
	run1, run2 := frameRun{seed: s1, n: 9}, frameRun{seed: s2, n: 6}
	two := snapshotOf(groupedOf("g", hdrSeeded(s1, 5), hdrSeeded(s1, 9)))
	mixed := snapshotOf(groupedOf("g", hdrSeeded(s1, 9), hdrSeeded(s2, 6)))
	good := MarshalSnapshotFrame(two)
	cut := hostileFrame([]frameRun{{seed: s1[:core.SeedSize-1], n: 9}}, []uint32{0, 0}, two)
	out := map[string][]byte{
		"reference past the table":                             hostileFrame([]frameRun{run1}, []uint32{0, 1}, two),
		"reference into an empty table":                        hostileFrame(nil, []uint32{0, 0}, two),
		"header longer than its run":                           hostileFrame([]frameRun{{seed: s1, n: 7}}, []uint32{0, 0}, two),
		"run longer than any header":                           patch(good, 2+4, 0, 0, 0, 10),
		"header longer than its run as written":                patch(good, 2+4, 0, 0, 0, 8),
		"duplicate runs":                                       hostileFrame([]frameRun{run1, {seed: bytes.Clone(s1), n: 9}}, []uint32{0, 1}, two),
		"two entries with one seed":                            hostileFrame([]frameRun{run1, run1}, []uint32{0, 1}, two),
		"a prefix run beside its run":                          hostileFrame([]frameRun{{seed: s1, n: 5}, run1}, []uint32{0, 1}, two),
		"unused run":                                           hostileFrame([]frameRun{run1, run2}, []uint32{0, 0}, two),
		"runs out of first-use order":                          hostileFrame([]frameRun{run2, run1}, []uint32{1, 0}, mixed),
		"run longer than every header that references it":      hostileFrame([]frameRun{run1, {seed: s2, n: 9}}, []uint32{0, 1}, mixed),
		"zero-length run":                                      patch(good, 2+4, 0, 0, 0, 0),
		"run past the clamp":                                   patch(good, 2+4, 0, 0, byte(len(good)>>8), byte(len(good))),
		"run count at the clamp":                               patch(good, 2, 0, byte(maxFrameRuns>>16), 0, 0),
		"run count past the clamp":                             patch(good, 2, 0, byte(maxFrameRuns>>16), 0, 1),
		"marker of no run form":                                patch(good, 2+4+4, 0, 1, 0, 0),
		"seed truncated":                                       cut,
		"seed cut off by the end of the frame":                 MarshalSnapshotFrame(snapshotOf(pubsub.ConfigInfo{Key: "h", Header: hdrSeeded(s1, 1)}))[:2+4+4+4+core.SeedSize-1],
		"runs to the end of the input":                         greedySeededRuns(1 << 12),
		"runs claiming more nonces than the input could bring": claimedRuns(1<<12, 100, 400),
		"version 4":                                            patch(good, 0, 4),
	}
	for name, raw := range writtenOutFrames() {
		out[name] = raw
	}
	return out
}

func TestFrameRunTableHardening(t *testing.T) {
	for name, raw := range hostileFrames() {
		if _, err := UnmarshalFrame(raw); err == nil {
			t.Errorf("%s: frame accepted", name)
		}
	}
	for name, want := range map[string]error{
		"version 4":                            ErrBadVersion,
		"run count past the clamp":             ErrOversize,
		"run past the clamp":                   ErrOversize,
		"seed truncated":                       nil, // one byte short shifts the body: refused, whatever the reason
		"seed cut off by the end of the frame": ErrTruncated,
	} {
		if _, err := UnmarshalFrame(hostileFrames()[name]); err == nil || want != nil && !errors.Is(err, want) {
			t.Errorf("%s: %v, want %v", name, err, want)
		}
	}
	// A run draws nothing from the message budget, because it allocates
	// nothing but its seed; every header draws 8·|X|.
	seed := testSeed(1)
	r := newReader(MarshalSnapshotFrame(snapshotOf(groupedOf("g", hdrSeeded(seed, 5), hdrSeeded(seed, 9))))[2:])
	if err := readRunTable(r); err != nil {
		t.Fatal(err)
	}
	if _, err := readSnapshot(r); err != nil {
		t.Fatal(err)
	}
	const charged = 8*6 + 8*10
	if err := r.takeHeaderBudget(maxHeaderBudget - charged); err != nil {
		t.Fatalf("frame charged more than %d bytes: %v", charged, err)
	}
	if err := r.takeHeaderBudget(1); err == nil {
		t.Fatalf("frame charged less than %d bytes", charged)
	}
	// With the budget spent, a run table still decodes — to seeds — and the
	// first header is what fails.
	r = newReader(MarshalSnapshotFrame(snapshotOf(groupedOf("g", hdrSeeded(seed, 9))))[2:])
	if err := r.takeHeaderBudget(maxHeaderBudget); err != nil {
		t.Fatal(err)
	}
	if err := readRunTable(r); err != nil || len(r.runs) != 1 || r.runs[0].n != 9 || !bytes.Equal(r.runs[0].seed, seed) {
		t.Fatalf("seeded run table with no budget left: %v, runs %+v", err, r.runs)
	}
	if _, err := readSnapshot(r); !errors.Is(err, ErrOversize) {
		t.Fatalf("header past the budget: %v, want ErrOversize", err)
	}
}

// TestRunTableAllocatesWithinItsInput: every run's longest header is still
// to come with its X, so the runs of a frame cannot hold more nonces than an
// eighth of the input has bytes; a table that claims more is refused before
// it is built, whatever its runs would expand to.
func TestRunTableAllocatesWithinItsInput(t *testing.T) {
	raw := claimedRuns(1<<20, 2000, 100_000) // 8 GB of nonces and slice headers as claimed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalFrame(raw)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrOversize) {
		t.Fatalf("frame of %d runs of %d nonces: %v, want ErrOversize", 2000, 100_000, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4*uint64(len(raw)) {
		t.Fatalf("decoder allocated %d bytes on a hostile frame of %d", got, len(raw))
	}
}

// TestSeededRunTableAllocatesWithinItsInput: a seeded run costs 40 bytes of
// input and the decoder its 32-byte seed and a table entry, whatever n it
// claims — nothing is expanded at decode — so a frame of nothing but seeded
// runs, each claiming the most the clamp allows, costs a fraction of its size
// before it is refused for the headers it does not bring.
func TestSeededRunTableAllocatesWithinItsInput(t *testing.T) {
	raw := greedySeededRuns(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalFrame(raw)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("frame of seeded runs and no headers accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(len(raw))/4 {
		t.Fatalf("decoder allocated %d bytes on a hostile frame of %d, want under a quarter of it", got, len(raw))
	}
}

// mixedSessionSnapshot is the snapshot of a table under churn: shards of
// 128 spread over a few dozen rekey sessions, the oldest session still
// holding most of them.
func mixedSessionSnapshot(shards int) *pubsub.Broadcast {
	const n, sessions = 128, 40
	var seeds [sessions][]byte
	for s := range seeds {
		seeds[s] = testSeed(byte(s))
	}
	var hdrs []*core.Header
	for i := 0; i < shards; i++ {
		s := 0
		if i%3 == 0 {
			s = (i / 3) % sessions
		}
		hdrs = append(hdrs, hdrSeeded(seeds[s], n-i%5))
	}
	return snapshotOf(groupedOf("g0", hdrs[:shards/2]...), groupedOf("g1", hdrs[shards/2:]...))
}

// TestDecodedSnapshotWeighsItsX: a decoded frame holds X and seeds. The
// snapshot of the churn-stream table late in a run — 294 shards of 128 rows
// under two policies, every shard re-solved in a session of its own — decoded
// and held grows the heap by its X entries and a fixed cost per shard (the
// header, its seed, the shard and revision entries: under 300 bytes), where
// 294 expanded runs would be another 5 kB each; decoding it, as a snapshot or
// as a delta, expands no seed.
func TestDecodedSnapshotWeighsItsX(t *testing.T) {
	const shards, n = 294, 128
	var hdrs []*core.Header
	for i := 0; i < shards; i++ {
		seed := testSeed(byte(i))
		seed[2] = byte(i >> 8)
		hdrs = append(hdrs, hdrSeeded(seed, n))
	}
	snap := snapshotOf(groupedOf("g0", hdrs[:shards/2]...), groupedOf("g1", hdrs[shards/2:]...))
	raw, rawDelta := MarshalSnapshotFrame(snap), MarshalDeltaFrame(deltaOf(snap))
	expanded := core.NonceExpansions()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC() // twice: the pooled frame encoder outlives one collection
	runtime.ReadMemStats(&before)
	f, err := UnmarshalFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(raw)
	x := 8 * (n + 1) * shards
	grown, limit := int(after.HeapAlloc)-int(before.HeapAlloc), x*5/4+300*shards
	t.Logf("decoded snapshot of %d shards: heap +%d bytes for %d of X", shards, grown, x)
	if grown > limit {
		t.Errorf("a decoded snapshot of %d shards holds %d bytes; its X is %d, want ≤ 1.25 × X + 300 per shard = %d", shards, grown, x, limit)
	}
	d, err := UnmarshalFrame(rawDelta)
	if err != nil {
		t.Fatal(err)
	}
	if n := coretest.ListedNonces(f) + coretest.ListedNonces(d); n != 0 || core.NonceExpansions() != expanded {
		t.Errorf("decoding holds %d nonces and expanded %d seeds", n, core.NonceExpansions()-expanded)
	}
	if !reflect.DeepEqual(f.Snapshot, snap) {
		t.Error("decoded snapshot differs from its input")
	}
}

// TestMarshalAllocatesItsFrame gates what BenchmarkSnapshotFrame/marshal
// reports: a frame is written into a pooled encoder, so once that has grown a
// marshal allocates the exact-size result and a constant — not the 4.5 frames
// a buffer that doubles and is then copied out of cost.
func TestMarshalAllocatesItsFrame(t *testing.T) {
	if coretest.RaceEnabled {
		t.Skip("sync.Pool drops a share of what it is given under -race")
	}
	snap, delta := mixedSessionSnapshot(294), deltaOf(mixedSessionSnapshot(14))
	for name, marshal := range map[string]func() []byte{
		"snapshot": func() []byte { return MarshalSnapshotFrame(snap) },
		"delta":    func() []byte { return MarshalDeltaFrame(delta) },
	} {
		var raw []byte
		got := coretest.MedianAllocated(9, func() { raw = marshal() })
		if limit := uint64(len(raw))*11/10 + 1024; got > limit {
			t.Errorf("marshalling a %s frame of %d bytes allocates %d, want ≤ 1.1 × frame + 1 kB", name, len(raw), got)
		}
	}
}

// TestConcurrentMarshalsShareEncoders: origin, relays and fetches marshal at
// once, each into an encoder taken from one pool; every frame must still be
// its own bytes (run under -race).
func TestConcurrentMarshalsShareEncoders(t *testing.T) {
	snaps := []*pubsub.Broadcast{everyRunForm(), mixedSessionSnapshot(7), mixedSessionSnapshot(40), fuzzSnapshot()}
	var want [][2][]byte
	for _, b := range snaps {
		want = append(want, [2][]byte{MarshalSnapshotFrame(b), MarshalDeltaFrame(deltaOf(b))})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(snaps)
				if !bytes.Equal(MarshalSnapshotFrame(snaps[k]), want[k][0]) || !bytes.Equal(MarshalDeltaFrame(deltaOf(snaps[k])), want[k][1]) {
					t.Errorf("goroutine %d, marshal %d: frame %d differs from the one marshalled alone", g, i, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkSnapshotFrame marshals and decodes a 294-shard snapshot of mixed
// sessions (the churn-stream shape of bench/) and reports the frame's size
// next to what its headers weigh as built.
func BenchmarkSnapshotFrame(b *testing.B) {
	snap := mixedSessionSnapshot(294)
	raw := MarshalSnapshotFrame(snap)
	built := 0
	for _, ci := range snap.Configs {
		built += ci.Grouped.Size()
	}
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			MarshalSnapshotFrame(snap)
		}
		b.ReportMetric(float64(len(raw)), "frame-B")
		b.ReportMetric(float64(built), "as-built-B")
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raw)))
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalFrame(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}
