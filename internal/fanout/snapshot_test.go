package fanout

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/core/coretest"
	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

// The tests below pin the lazy snapshot: a ring entry is the broadcast and
// its delta frame, and the snapshot frame exists only once somebody needs
// it, once per epoch, for the newest epoch of a document alone.

const shardRows = 128

func sessionSeed(epoch uint64, shard int) []byte {
	seed := make([]byte, core.SeedSize)
	binary.BigEndian.PutUint64(seed, epoch)
	binary.BigEndian.PutUint64(seed[8:], uint64(shard)+1)
	return seed
}

func shardHeader(seed []byte, salt uint64) *core.Header {
	h := &core.Header{X: make(linalg.Vector, shardRows+1), Seed: seed}
	for i := range h.X {
		h.X[i] = ff64.Elem(salt*1000 + uint64(i) + 1)
	}
	return h
}

// tableBroadcast is epoch 1 of a grouped table the shape the engine
// publishes: one configuration per policy, rows/128 shards of 128 solved in
// one session (one seed).
func tableBroadcast(doc string, rows, policies int) *pubsub.Broadcast {
	seed := sessionSeed(1, -1)
	b := &pubsub.Broadcast{DocName: doc, Epoch: 1, Gen: 9}
	for p := 0; p < policies; p++ {
		id := fmt.Sprintf("acp%d", p)
		key := policy.ConfigOf(id)
		ci := pubsub.ConfigInfo{Key: key, Rev: 1,
			Grouped: &core.GroupedHeader{RekeyNonce: bytes.Repeat([]byte{byte(p + 1)}, core.NonceSize)}}
		for i := 0; i < rows/shardRows; i++ {
			ci.Grouped.Shards = append(ci.Grouped.Shards,
				core.GroupShard{Hdr: shardHeader(seed, uint64(p*rows+i)), Wrap: ff64.Elem(uint64(i) + 1)})
			ci.ShardRevs = append(ci.ShardRevs, 1)
		}
		b.Policies = append(b.Policies, pubsub.PolicyInfo{ID: id, CondIDs: []string{fmt.Sprintf("attr%d >= 1", p)}})
		b.Configs = append(b.Configs, ci)
		b.Items = append(b.Items, pubsub.Item{Subdoc: fmt.Sprintf("sd%d", p), Config: key,
			Ciphertext: bytes.Repeat([]byte{byte(p)}, 64), Rev: 1})
	}
	return b
}

// churned is the epoch after b with `events` shards re-solved, each in its
// own session, spread over the configurations; everything else is shared
// with b, as Publish carries clean shards forward.
func churned(b *pubsub.Broadcast, events int) *pubsub.Broadcast {
	next := *b
	next.Epoch++
	next.Configs = append([]pubsub.ConfigInfo(nil), b.Configs...)
	for e := 0; e < events; e++ {
		ci := &next.Configs[e%len(next.Configs)]
		if ci.Rev != next.Epoch {
			g := *ci.Grouped
			g.Shards = append([]core.GroupShard(nil), g.Shards...)
			ci.Grouped, ci.Rev = &g, next.Epoch
			ci.ShardRevs = append([]uint64(nil), ci.ShardRevs...)
		}
		i := (int(next.Epoch)*31 + e*7) % len(ci.Grouped.Shards)
		seed := sessionSeed(next.Epoch, e)
		ci.Grouped.Shards[i].Hdr = shardHeader(seed, next.Epoch<<20+uint64(e))
		ci.ShardRevs[i] = next.Epoch
	}
	return &next
}

// recConn is a stream's socket that records each frame written to it: a copy
// of its bytes and the address of the buffer the hub wrote from (one Write
// per frame, also when the writer batches).
type recConn struct {
	*chanConn
	mu     sync.Mutex
	frames [][]byte
	bufs   []*byte
}

func newRecConn() *recConn { return &recConn{chanConn: newChanConn()} }

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), p...))
	c.bufs = append(c.bufs, &p[0])
	c.mu.Unlock()
	return c.chanConn.Write(p)
}

func (c *recConn) frame(i int) (payload []byte, buf *byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.frames[i][4:], c.bufs[i]
}

func builtHeld(h *Hub) [2]int64 {
	built, held := h.Snapshots()
	return [2]int64{built, held}
}

func TestCurrentStreamsBuildNoSnapshots(t *testing.T) {
	h := NewHub()
	defer h.Close()
	b := tableBroadcast("doc", 2048, 2)
	h.Publish(b, nil, nil, 0)
	if got := builtHeld(h); got != [2]int64{0, 0} {
		t.Fatalf("a publish nobody listens to built/held %v", got)
	}
	// Three joiners share the one catch-up snapshot of epoch 1.
	for i := 0; i < 3; i++ {
		serveAsync(h, newChanConn(), "", 0, 0)
	}
	waitEgress(t, h, 3)
	if got, want := builtHeld(h), [2]int64{1, int64(len(wire.MarshalSnapshotFrame(b)))}; got != want {
		t.Fatalf("after three joins built/held %v, want %v", got, want)
	}
	for i := 1; i <= 50; i++ {
		b = churned(b, 2)
		h.Publish(b, nil, nil, 0)
		waitEgress(t, h, 3+3*int64(i)) // drained: nobody falls behind and is evicted
	}
	if got := builtHeld(h); got != [2]int64{1, 0} {
		t.Fatalf("50 publishes to current streams: built/held %v, want the join's 1 build and nothing held", got)
	}
}

func TestOneSnapshotBuildSharedByAllDemand(t *testing.T) {
	const fetches, joins = 8, 6
	h := NewHub()
	defer h.Close()
	h.SetRetention(2)
	b := tableBroadcast("doc", 2048, 2)
	h.Publish(b, nil, nil, 0)
	for i := 0; i < 3; i++ { // epoch 1 rotates out of the window
		b = churned(b, 2)
		h.Publish(b, nil, nil, 0)
	}
	want := wire.MarshalSnapshotFrame(b)

	conns := make([]*recConn, joins+1)
	for i := range conns {
		conns[i] = newRecConn()
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < fetches; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			known, raw, got := h.Lookup("doc")
			if !known || got != b || !bytes.Equal(raw, want) {
				t.Errorf("fetch: known %v, epoch %d, %d bytes; want the %d-byte frame of epoch %d", known, got.Epoch, len(raw), len(want), b.Epoch)
			}
		}()
	}
	for i, nc := range conns {
		lastEpoch, lastGen := uint64(0), uint64(0)
		if i == joins {
			lastEpoch, lastGen = 1, b.Gen // a reconnect from outside the window
		}
		go func() {
			<-start
			h.ServeConn(nc, "", lastEpoch, lastGen)
		}()
	}
	close(start)
	wg.Wait()
	waitEgress(t, h, joins+1)

	if got := builtHeld(h); got != [2]int64{1, int64(len(want))} {
		t.Fatalf("%d fetches, %d joins and a reconnect on one epoch: built/held %v, want 1 and %d", fetches, joins, got, len(want))
	}
	_, shared := conns[0].frame(0)
	for i, nc := range conns {
		payload, buf := nc.frame(0)
		if !bytes.Equal(payload, want) {
			t.Fatalf("stream %d received %d bytes, not the snapshot frame", i, len(payload))
		}
		if buf != shared {
			t.Fatalf("stream %d was written from its own copy of the snapshot", i)
		}
	}
}

func TestOnlyNewestEntryOfADocumentHoldsASnapshot(t *testing.T) {
	const retain = 4
	h := NewHub()
	defer h.Close()
	h.SetRetention(retain)
	cur := map[string]*pubsub.Broadcast{"a": tableBroadcast("a", 1024, 1), "b": tableBroadcast("b", 2048, 1)}
	publish := func(doc string) {
		cur[doc] = churned(cur[doc], 1)
		h.Publish(cur[doc], nil, nil, 0)
		if _, raw, _ := h.Lookup(doc); !bytes.Equal(raw, wire.MarshalSnapshotFrame(cur[doc])) {
			t.Fatalf("fetch of %q at epoch %d is not its snapshot frame", doc, cur[doc].Epoch)
		}
	}
	for i := 0; i < retain+3; i++ {
		publish([]string{"a", "b"}[i%2])
	}
	wantHeld := int64(len(wire.MarshalSnapshotFrame(cur["a"])) + len(wire.MarshalSnapshotFrame(cur["b"])))
	if got := builtHeld(h); got != [2]int64{retain + 3, wantHeld} {
		t.Fatalf("two interleaved documents, every epoch fetched: built/held %v, want %d and the two newest frames' %d bytes", got, retain+3, wantHeld)
	}
	h.mu.Lock()
	for _, ent := range h.ring.entries {
		if newest := ent.b == cur[ent.doc]; (ent.snap != nil) != newest {
			t.Errorf("%q epoch %d (newest %v) holds a snapshot: %v", ent.doc, ent.epoch, newest, ent.snap != nil)
		}
	}
	h.mu.Unlock()

	// "a" rotates out of the ring: its name is still served, with the
	// nearest retained snapshot, and that is the only one held.
	for i := 0; i < retain; i++ {
		publish("b")
	}
	known, raw, got := h.Lookup("a")
	if !known || got != cur["b"] || !bytes.Equal(raw, wire.MarshalSnapshotFrame(cur["b"])) {
		t.Fatalf("rotated-out document: known %v, served %q epoch %d", known, got.DocName, got.Epoch)
	}
	if _, held := h.Snapshots(); held != int64(len(raw)) {
		t.Fatalf("%d snapshot bytes held with one live document, want %d", held, len(raw))
	}
}

// TestFetchedBytesSurviveSupersession is the pool hazard: a fetch's bytes
// are gob-encoded after Lookup returns, while later epochs supersede the
// entry and pooled frame buffers are recycled. The reader and the writers
// run concurrently so the race detector sees any shared buffer.
func TestFetchedBytesSurviveSupersession(t *testing.T) {
	h := NewHub()
	defer h.Close()
	b := tableBroadcast("doc", 1024, 1)
	h.Publish(b, nil, nil, 0)
	nc := newChanConn()
	serveAsync(h, nc, "", 0, 0)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_, raw, got := h.Lookup("doc")
			want := wire.MarshalSnapshotFrame(got)
			for i := 0; i < 4; i++ { // the encode outlives several publishes
				if !bytes.Equal(raw, want) {
					t.Errorf("bytes fetched at epoch %d changed underneath the fetch", got.Epoch)
					return
				}
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		b = churned(b, 1)
		h.Publish(b, nil, nil, 0)
		// A joiner takes the snapshot and leaves, so snapshot frames go
		// through queues and release while deltas cycle the pool.
		if i%10 == 0 {
			j := newChanConn()
			serveAsync(h, j, "", 0, 0)
			j.Close()
			for h.Conns() > 1 {
				runtime.Gosched()
			}
		}
	}
	close(done)
	wg.Wait()
}

// TestRingHoldsOneSnapshotAndItsDeltas: at ~5k rows a full ring of 8 epochs,
// every one of them fetched, pins one snapshot frame and eight deltas — by
// the hub's own count and by the heap.
func TestRingHoldsOneSnapshotAndItsDeltas(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is inflated under -race")
	}
	epochs := []*pubsub.Broadcast{tableBroadcast("doc", 5120, 1)}
	frameBytes := 0
	for i := 1; i < DefaultRetention; i++ {
		next := churned(epochs[i-1], 2)
		d, err := pubsub.Diff(epochs[i-1], next)
		if err != nil {
			t.Fatal(err)
		}
		frameBytes += len(wire.MarshalDeltaFrame(d))
		epochs = append(epochs, next)
	}
	snapBytes := len(wire.MarshalSnapshotFrame(epochs[len(epochs)-1]))
	frameBytes += snapBytes
	if snapBytes < 40<<10 {
		t.Fatalf("snapshot of %d bytes: the fixture is too small for the heap to resolve", snapBytes)
	}

	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle empties framePool's victim cache
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	h := NewHub()
	defer h.Close()
	before := heap()
	for _, b := range epochs {
		h.Publish(b, nil, nil, 0)
		h.Lookup("doc")
	}
	after := heap()
	if built, held := h.Snapshots(); built != DefaultRetention || held != int64(snapBytes) {
		t.Fatalf("built %d, holding %d bytes; want %d builds and the newest frame's %d bytes", built, held, DefaultRetention, snapBytes)
	}
	if grew := int64(after) - int64(before); grew > 2*int64(frameBytes) {
		t.Fatalf("a full ring grew the heap by %d bytes; one snapshot and its deltas are %d (eight snapshots would be %d)",
			grew, frameBytes, DefaultRetention*snapBytes)
	}
	runtime.KeepAlive(epochs)
}

// churnStreamHub is the hub of bench/'s churn-stream: a 25k-row, 2-policy
// table in shards of 128 and one stream that is current. next returns the
// following epoch, an 8-event churn, for the caller to publish — once the
// stream has drained the last one, so it is never evicted for slowness and
// every publish takes the delta path.
func churnStreamHub(tb testing.TB) (h *Hub, next func() *pubsub.Broadcast) {
	h = NewHub()
	tb.Cleanup(h.Close)
	cur := tableBroadcast("doc", 25088, 2)
	h.Publish(cur, nil, nil, 0)
	serveAsync(h, newChanConn(), "", 0, 0)
	sent := int64(0)
	return h, func() *pubsub.Broadcast {
		sent++
		for frames, _ := h.Egress(); frames < sent; frames, _ = h.Egress() {
			runtime.Gosched()
		}
		cur = churned(cur, 8)
		return cur
	}
}

// BenchmarkHubPublishDelta is one epoch of churn-stream through the hub.
// B/op must follow the delta — the diff, its frame, the pooled copy — with
// no term of the snapshot's size (reported as snapshot-B for comparison).
func BenchmarkHubPublishDelta(b *testing.B) {
	h, next := churnStreamHub(b)
	var cur *pubsub.Broadcast
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		cur = next()
		b.StartTimer()
		h.Publish(cur, nil, nil, 0)
		b.StopTimer()
	}
	if built, _ := h.Snapshots(); built != 1 || h.Conns() != 1 {
		b.Fatalf("%d snapshots built over %d publishes, %d streams left; want the join's 1 build and the stream current", built, b.N, h.Conns())
	}
	b.ReportMetric(float64(len(wire.MarshalSnapshotFrame(cur))), "snapshot-B")
}

// TestPublishAllocatesForTheDeltaOnly gates what the benchmark reports: a
// publish to a current stream allocates its diff and the delta frame's own
// bytes (in their size class; the pooled copy regrows when a delta outgrows
// the one before) — no term of the snapshot's size, and no encoder buffer
// grown by doubling and thrown away, which was five frames' worth.
func TestPublishAllocatesForTheDeltaOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const epochs = 16
	h, next := churnStreamHub(t)
	// Per epoch, what the publish allocates beyond its diff and its frame's
	// length; the median, because a goroutine that changes processor between
	// two publishes finds the pools' other encoder and frame, or none.
	var beyond []int
	prev, frame := next(), 0
	h.Publish(prev, nil, nil, 0)
	for i := 0; i < epochs; i++ {
		cur := next()
		var d *pubsub.BroadcastDelta
		diff := coretest.Allocated(func() { d, _ = pubsub.Diff(prev, cur) })
		frame = len(wire.MarshalDeltaFrame(d)) // every epoch re-solves eight shards: one size
		publish := coretest.Allocated(func() { h.Publish(cur, nil, nil, 0) })
		beyond = append(beyond, int(publish)-int(diff)-frame)
		prev = cur
	}
	slices.Sort(beyond)
	if got, limit := beyond[epochs/2], frame/4+1024; got > limit {
		t.Fatalf("a publish of an 8-event delta allocates %d B beyond its diff and its %d B frame, want ≤ 0.25 × frame + 1 kB", got, frame)
	}
}
