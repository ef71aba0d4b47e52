package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/core/coretest"
	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
)

// testRun builds a nonce run the way a session draws one: n nonces of size
// bytes in one buffer, told apart from other runs by tag.
func testRun(tag byte, n, size int) [][]byte {
	buf := make([]byte, n*size)
	for i := range buf {
		buf[i] = tag + byte(i/max(size, 1)) + byte(i)
	}
	return core.NonceRun(buf, n, size)
}

// hdrOn builds a header of N = n over the front of run, its nonces given one
// by one: what core.Build returns, and what a frame writes out.
func hdrOn(run [][]byte, n int) *core.Header {
	h := hdrSeeded(nil, n)
	h.Zs = run[:n:n]
	return h
}

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

// cloneNonces copies a nonce sequence nonce by nonce: equal to the original
// by content, sharing no memory with it.
func cloneNonces(zs [][]byte) [][]byte {
	out := make([][]byte, len(zs))
	for i, z := range zs {
		out[i] = append([]byte{}, z...)
	}
	return out
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

// everyRunForm is a snapshot whose frame holds a run of every form, two of
// them lengthened by a later header: seeded, written out, uneven, and a
// header with no nonces at all.
func everyRunForm() *pubsub.Broadcast {
	a, s1 := testRun(1, 9, core.NonceSize), testSeed(1)
	return snapshotOf(
		groupedOf("g", hdrSeeded(s1, 5), hdrOn(a, 5), hdrSeeded(s1, 8), hdrOn(a, 9)),
		pubsub.ConfigInfo{Key: "m", Rev: 1, Header: hdrOn([][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 15), {}}, 4)},
		pubsub.ConfigInfo{Key: "s2", Rev: 1, Header: hdrSeeded(testSeed(2), 1)},
		pubsub.ConfigInfo{Key: "none", Rev: 1, Header: &core.Header{X: linalg.Vector{42}}})
}

// TestFrameRunTableRoundTrip: whatever way a frame's headers share (or do
// not share) their nonces, snapshot and delta decode to exactly the input,
// re-marshal to the same bytes, and carry each distinct run once.
func TestFrameRunTableRoundTrip(t *testing.T) {
	a, b, c := testRun(1, 9, core.NonceSize), testRun(2, 6, core.NonceSize), testRun(3, 4, core.NonceSize)
	// What the v1 codec carries a frame carries: no producer draws nonces of
	// several lengths, but nothing forbids them in an ungrouped header.
	mixed := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 15), {}}
	s1, s2 := testSeed(1), testSeed(2)
	session := core.ExpandNonces(s1, 9)
	cases := []struct {
		name string
		b    *pubsub.Broadcast
		runs int
	}{
		{"same session, the longer shard after the shorter", snapshotOf(
			groupedOf("g", hdrOn(a, 5), hdrOn(a, 9), hdrOn(a, 3))), 1},
		{"shards of one seed with different N, sharing the run's memory", snapshotOf(
			groupedOf("g", hdrSeeded(s1, 5), hdrSeeded(s1, 9), hdrSeeded(s1, 3))), 1},
		{"one seed, nothing shared but the seed, the run lengthened by a later header", snapshotOf(
			groupedOf("g", hdrSeeded(s1, 4), hdrSeeded(bytes.Clone(s1), 9)),
			groupedOf("g2", hdrSeeded(s2, 6), hdrSeeded(s1, 7))), 2},
		{"seeded, written out and uneven runs in one frame", everyRunForm(), 4},
		{"a run written out beside the seeded run it equals", snapshotOf(
			groupedOf("g", hdrSeeded(s1, 5), hdrOn(core.ExpandNonces(s1, 5), 5), hdrOn(session, 7), hdrSeeded(s1, 3))), 2},
		{"a written-out run that opens with a seed's bytes", snapshotOf(
			pubsub.ConfigInfo{Key: "z32", Rev: 1, Header: hdrOn([][]byte{s1, s2}, 2)},
			pubsub.ConfigInfo{Key: "s1", Rev: 1, Header: hdrSeeded(s1, 2)},
			pubsub.ConfigInfo{Key: "z32 again", Rev: 1, Header: hdrOn([][]byte{s1}, 1)}), 2},
		{"nothing shared", snapshotOf(
			groupedOf("g", hdrOn(a, 9), hdrOn(b, 6)),
			pubsub.ConfigInfo{Key: "h", Rev: 2, Header: hdrOn(c, 4)}), 3},
		{"equal by content, not by pointer", snapshotOf(
			groupedOf("g", hdrOn(a, 4), hdrOn(cloneNonces(a), 9)),
			groupedOf("g2", hdrOn(b, 6), hdrOn(cloneNonces(a)[:7], 7))), 2},
		{"same first nonce, different runs", snapshotOf(
			groupedOf("g", hdrOn(a, 3), hdrOn(append(cloneNonces(a[:5]), b[0]), 6), hdrOn(a, 9))), 2},
		{"nonce lengths 0, 15, 17 and no nonces, ungrouped", snapshotOf(
			pubsub.ConfigInfo{Key: "z0", Rev: 1, Header: hdrOn(make([][]byte, 3), 3)},
			pubsub.ConfigInfo{Key: "z15", Rev: 1, Header: hdrOn(testRun(4, 2, 15), 2)},
			pubsub.ConfigInfo{Key: "z17", Rev: 1, Header: hdrOn(testRun(5, 5, 17), 5)},
			pubsub.ConfigInfo{Key: "none", Rev: 1, Header: &core.Header{X: linalg.Vector{42}}},
			pubsub.ConfigInfo{Key: "z17 again", Rev: 1, Header: hdrOn(testRun(5, 5, 17), 4)},
			pubsub.ConfigInfo{Key: "bare", Rev: 1}), 3},
		{"one shard", snapshotOf(groupedOf("g", hdrOn(a, 9))), 1},
		{"nonces of several lengths in one header", snapshotOf(
			pubsub.ConfigInfo{Key: "m", Rev: 1, Header: hdrOn(mixed, 4)},
			pubsub.ConfigInfo{Key: "its even front", Rev: 1, Header: hdrOn(cloneNonces(mixed), 2)},
			pubsub.ConfigInfo{Key: "a run grown uneven", Rev: 1, Header: hdrOn(b, 3)},
			pubsub.ConfigInfo{Key: "by its longer header", Rev: 1, Header: hdrOn(append(cloneNonces(b[:3]), []byte{1}, []byte{}), 5)}), 2},
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
// run. Named by a seed it is the seed they share — one 32-byte copy, no nonce
// anywhere — and written out it is one buffer and one [][]byte of which each
// lists its own capped prefix. Header.Clone copies out of either.
func TestDecodedHeadersShareTheirRun(t *testing.T) {
	a, seed := testRun(1, 9, core.NonceSize), testSeed(1)
	for name, g := range map[string]pubsub.ConfigInfo{
		"seeded":      groupedOf("g", hdrSeeded(seed, 5), hdrSeeded(seed, 9)),
		"listed":      groupedOf("g", hdrListed(seed, 5), hdrListed(seed, 9)),
		"written out": groupedOf("g", hdrOn(a, 5), hdrOn(cloneNonces(a), 9)),
	} {
		f, err := UnmarshalFrame(MarshalSnapshotFrame(snapshotOf(g)))
		if err != nil {
			t.Fatal(err)
		}
		sh := f.Snapshot.Configs[0].Grouped.Shards
		short, long := sh[0].Hdr, sh[1].Hdr
		if name == "written out" {
			if short.Seed != nil || &short.Zs[0] != &long.Zs[0] || &short.Zs[4][0] != &long.Zs[4][0] {
				t.Fatalf("%s: two headers of one run do not share its backing arrays", name)
			}
			if cap(short.Zs) != 5 || cap(short.Zs[4]) != core.NonceSize {
				t.Fatalf("%s: a header's window reaches past its own nonces: cap(Zs)=%d cap(z)=%d", name, cap(short.Zs), cap(short.Zs[4]))
			}
		} else if short.Zs != nil || long.Zs != nil || &short.Seed[0] != &long.Seed[0] || !bytes.Equal(short.Seed, seed) || &short.Seed[0] == &seed[0] {
			t.Fatalf("%s: decoded headers hold nonces %v, %v or seeds %x, %x that are not one copy of the run's", name, short.Zs, long.Zs, short.Seed, long.Seed)
		}
		if !core.SameNonces(short.Nonces(), long.Nonces()[:5]) || short.N() != 5 || long.N() != 9 {
			t.Fatalf("%s: the shorter header's nonces are not the front of the longer's", name)
		}
		cl := long.Clone()
		if !reflect.DeepEqual(cl, long) {
			t.Fatalf("%s: Clone differs from its source", name)
		}
		cl.X[0]++
		if cl.Seeded() {
			cl.Seed[0] ^= 0xff
		} else {
			cl.Zs[0][0] ^= 0xff
		}
		if cl.X[0] == long.X[0] || reflect.DeepEqual(cl.Nonces(), long.Nonces()) || !reflect.DeepEqual(short.Seed, long.Seed) || long.Seeded() && long.Seed[0] != seed[0] {
			t.Fatalf("%s: Clone shares memory with the decoded run", name)
		}
	}
}

// goldenFrames are frames of version 6 by length and SHA-256: what rests in a
// header is this program's business, what it sends is not. A snapshot weighs
// what it weighed at version 5, whose frames were pinned before headers
// stopped holding their nonces; a grouped delta's shards ship a wrap and, where
// the base does not say it, an exception.
var goldenFrames = map[string]struct {
	size int
	sum  string
}{
	"snapshot, every run form":            {905, "3acf70c3ea15ab97e08179140045ef8fae6f7013b7775eb6732a5ff8fb1ce2d8"},
	"delta, every run form":               {930, "5c692b20b23e874ad328a85fe50df363399419597dcaf913cc74fb9d18d94091"},
	"snapshot, 294 shards of 40 sessions": {307549, "48d25640b9e0892e035e7eaf1ebd4c945f4de4a934a43f1f522283fc849cd2cf"},
	"delta, 294 shards of 40 sessions":    {307606, "72d89f7d5fc95591680486a6959cdf9b6012616988bb01b60aa543fad2de7a6a"},
}

// TestFramesAreByteIdentical holds every encoder to goldenFrames, over
// headers that rest as a seed and over the same headers listed the way
// core.Build returns them.
func TestFramesAreByteIdentical(t *testing.T) {
	for _, form := range []string{"seeded", "listed"} {
		all, mixed := everyRunForm(), mixedSessionSnapshot(294)
		if form == "listed" {
			for _, b := range []*pubsub.Broadcast{all, mixed} {
				for _, h := range snapshotHeaders(b) {
					if h.Seeded() {
						h.Zs = h.Nonces()
					}
				}
			}
		}
		for name, raw := range map[string][]byte{
			"snapshot, every run form":            MarshalSnapshotFrame(all),
			"delta, every run form":               MarshalDeltaFrame(deltaOf(all)),
			"snapshot, 294 shards of 40 sessions": MarshalSnapshotFrame(mixed),
			"delta, 294 shards of 40 sessions":    MarshalDeltaFrame(deltaOf(mixed)),
		} {
			want := goldenFrames[name]
			if sum := sha256.Sum256(raw); len(raw) != want.size || hex.EncodeToString(sum[:]) != want.sum {
				t.Errorf("%s, %s headers: %d bytes with SHA-256 %x, want %d and %s", name, form, len(raw), sum, want.size, want.sum)
			}
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

// unevenForm is the snapshot of one header over run, its even run written
// in the form of an uneven one: the marker, then every nonce's length.
func unevenForm(run [][]byte) []byte {
	var w writer
	w.u8(VersionStream)
	w.u8(byte(FrameSnapshot))
	w.u32(1)
	w.u32(uint32(len(run)))
	w.u32(mixedLen)
	for _, z := range run {
		w.u32(uint32(len(z)))
	}
	for _, z := range run {
		w.w.Raw(z)
	}
	w.runs = &runTable{refs: []uint32{0}}
	writeSnapshot(&w, snapshotOf(pubsub.ConfigInfo{Key: "h", Header: hdrOn(run, len(run))}))
	return w.out()
}

// emptyNonceRuns is a frame of size bytes whose table claims runs runs of n
// zero-length nonces each: eight bytes of input per run, 24·n bytes of slice
// headers if the decoder believed them.
func emptyNonceRuns(size, runs, n int) []byte {
	var w writer
	w.u8(VersionStream)
	w.u8(byte(FrameSnapshot))
	w.u32(uint32(runs))
	for i := 0; i < runs; i++ {
		w.u32(uint32(n))
		w.u32(0)
	}
	return append(w.out(), make([]byte, size-w.w.Len())...)
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
// headers. The decoder must refuse each; FuzzFrame starts from them too.
func hostileFrames() map[string][]byte {
	a, b := testRun(1, 9, core.NonceSize), testRun(2, 6, core.NonceSize)
	two := snapshotOf(groupedOf("g", hdrOn(a, 5), hdrOn(a, 9)))
	mixed := snapshotOf(groupedOf("g", hdrOn(a, 9), hdrOn(b, 6)))
	good := MarshalSnapshotFrame(two)
	// good opens version ‖ type ‖ count(4) ‖ n(4) ‖ nonceLen(4) ‖ nonces.
	patch := func(good []byte, off int, v ...byte) []byte {
		raw := append([]byte(nil), good...)
		copy(raw[off:], v)
		return raw
	}
	out := func(runs ...[][]byte) (table []frameRun) {
		for _, zs := range runs {
			table = append(table, frameRun{zs: zs, n: len(zs)})
		}
		return table
	}
	// The same frames over seeded runs: seeded opens version ‖ type ‖ count(4)
	// ‖ n(4) ‖ seededRun(4) ‖ seed(32).
	s1, s2 := testSeed(1), testSeed(2)
	run1, run2 := frameRun{seed: s1, n: 9}, frameRun{seed: s2, n: 6}
	twoSeeded := snapshotOf(groupedOf("g", hdrSeeded(s1, 5), hdrSeeded(s1, 9)))
	mixedSeeded := snapshotOf(groupedOf("g", hdrSeeded(s1, 9), hdrSeeded(s2, 6)))
	seeded := MarshalSnapshotFrame(twoSeeded)
	cut := hostileFrame([]frameRun{{seed: s1[:core.SeedSize-1], n: 9}}, []uint32{0, 0}, twoSeeded)
	return map[string][]byte{
		"reference past the table":            hostileFrame(out(a), []uint32{0, 1}, two),
		"reference into an empty table":       hostileFrame(nil, []uint32{0, 0}, two),
		"header longer than its run":          hostileFrame(out(a[:7]), []uint32{0, 0}, two),
		"run longer than any header":          hostileFrame(out(append(cloneNonces(a), b[0])), []uint32{0, 0}, two),
		"duplicate runs":                      hostileFrame(out(a, cloneNonces(a)), []uint32{0, 1}, two),
		"a prefix run beside its run":         hostileFrame(out(a[:5], a), []uint32{0, 1}, two),
		"unused run":                          hostileFrame(out(a, b), []uint32{0, 0}, two),
		"runs out of first-use order":         hostileFrame(out(b, a), []uint32{1, 0}, mixed),
		"grouped sub-header on a 15-byte run": hostileFrame(out(testRun(1, 9, 15)), []uint32{0, 0}, two),
		"zero-length run":                     patch(good, 2+4, 0, 0, 0, 0),
		"run count at the clamp":              patch(good, 2, 0, byte(maxFrameRuns>>16), 0, 0),
		"run count past the clamp":            patch(good, 2, 0, byte(maxFrameRuns>>16), 0, 1),
		"nonce length past the input":         patch(good, 2+4+4, 0, 1, 0, 0),
		"one length listed nonce by nonce":    unevenForm(a),
		"runs of empty nonces":                emptyNonceRuns(1<<16, 2000, 5000),
		"version 4":                           patch(good, 0, 4),

		"seed truncated":                                         cut,
		"seed cut off by the end of the frame":                   MarshalSnapshotFrame(snapshotOf(pubsub.ConfigInfo{Key: "h", Header: hdrSeeded(s1, 1)}))[:2+4+4+4+core.SeedSize-1],
		"seeded run of no nonces":                                patch(seeded, 2+4, 0, 0, 0, 0),
		"seeded run past the clamp":                              patch(seeded, 2+4, 0, 0, byte(len(seeded)>>8), byte(len(seeded))),
		"seeded run longer than any header":                      patch(seeded, 2+4, 0, 0, 0, 10),
		"header longer than its seeded run":                      patch(seeded, 2+4, 0, 0, 0, 8),
		"two entries with one seed":                              hostileFrame([]frameRun{run1, run1}, []uint32{0, 1}, twoSeeded),
		"unused seeded run":                                      hostileFrame([]frameRun{run1, run2}, []uint32{0, 0}, twoSeeded),
		"seeded runs out of first-use order":                     hostileFrame([]frameRun{run2, run1}, []uint32{1, 0}, mixedSeeded),
		"a seeded run written out beside itself":                 hostileFrame(append([]frameRun{run1}, out(core.ExpandNonces(s1, 9))...), []uint32{0, 1}, twoSeeded),
		"seeded run longer than every header that references it": hostileFrame([]frameRun{run1, {seed: s2, n: 9}}, []uint32{0, 1}, mixedSeeded),
		"seeded runs to the end of the input":                    greedySeededRuns(1 << 12),
	}
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
		"seeded run past the clamp":            ErrOversize,
		"seed truncated":                       nil, // one byte short shifts the body: refused, whatever the reason
		"seed cut off by the end of the frame": ErrTruncated,
	} {
		if _, err := UnmarshalFrame(hostileFrames()[name]); err == nil || want != nil && !errors.Is(err, want) {
			t.Errorf("%s: %v, want %v", name, err, want)
		}
	}
	// A run written out draws its bytes and its slice headers from the message
	// budget; a seeded run draws nothing, because it allocates nothing but its
	// seed; and every header draws 8·|X|, whatever its run.
	a, seed := testRun(1, 9, core.NonceSize), testSeed(1)
	for name, tc := range map[string]struct {
		g       pubsub.ConfigInfo
		charged int
	}{
		"seeded":      {groupedOf("g", hdrSeeded(seed, 5), hdrSeeded(seed, 9)), 8*6 + 8*10},
		"written out": {groupedOf("g", hdrOn(a, 5), hdrOn(a, 9)), 9*(core.NonceSize+24) + 8*6 + 8*10},
	} {
		r := newReader(MarshalSnapshotFrame(snapshotOf(tc.g))[2:])
		if err := readRunTable(r); err != nil {
			t.Fatal(err)
		}
		if _, err := readSnapshot(r); err != nil {
			t.Fatal(err)
		}
		if err := r.takeHeaderBudget(maxHeaderBudget - tc.charged); err != nil {
			t.Fatalf("%s frame charged more than %d bytes: %v", name, tc.charged, err)
		}
		if err := r.takeHeaderBudget(1); err == nil {
			t.Fatalf("%s frame charged less than %d bytes", name, tc.charged)
		}
	}
	// With the budget spent, a seeded run table still decodes — to seeds — and
	// the first header is what fails.
	r := newReader(MarshalSnapshotFrame(snapshotOf(groupedOf("g", hdrSeeded(seed, 9))))[2:])
	if err := r.takeHeaderBudget(maxHeaderBudget); err != nil {
		t.Fatal(err)
	}
	if err := readRunTable(r); err != nil || len(r.runs) != 1 || r.runs[0].zs != nil || r.runs[0].n != 9 || !bytes.Equal(r.runs[0].seed, seed) {
		t.Fatalf("seeded run table with no budget left: %v, runs %+v", err, r.runs)
	}
	if _, err := readSnapshot(r); !errors.Is(err, ErrOversize) {
		t.Fatalf("header past the budget: %v, want ErrOversize", err)
	}
}

// TestRunTableAllocatesWithinItsInput: a run of empty nonces costs eight
// bytes of input and 24 bytes of slice header per nonce. Every run's longest
// header is still to come with its X, so the runs of a frame cannot hold more
// nonces than an eighth of the input has bytes; a table that claims more is
// refused before it is built.
func TestRunTableAllocatesWithinItsInput(t *testing.T) {
	raw := emptyNonceRuns(1<<20, 2000, 100_000) // 4.8 GB of slice headers as claimed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalFrame(raw)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrOversize) {
		t.Fatalf("frame of %d empty-nonce runs: %v, want ErrOversize", 2000, err)
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
