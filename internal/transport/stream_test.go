package transport

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"ppcd/internal/document"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/store"
	"ppcd/internal/wire"
)

// startGroupedServer spins up a grouped publisher (GroupSize 2) with one
// GE condition and registers n real subscribers over the wire.
func startGroupedServer(t *testing.T, n int, tune func(*Server)) (*Server, string, *pubsub.Publisher, []*pubsub.Subscriber) {
	t.Helper()
	p, m := env(t)
	acp, err := policy.New("adult", "age >= 18", "news.txt", "body")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := pubsub.NewPublisher(p, m.PublicKey(), []*policy.ACP{acp}, pubsub.Options{Ell: 8, GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(pub)
	if err != nil {
		t.Fatal(err)
	}
	if tune != nil {
		tune(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	subs := make([]*pubsub.Subscriber, n)
	for i := range subs {
		nym := fmt.Sprintf("pn-stream-%d", i)
		sub, err := pubsub.NewSubscriber(nym)
		if err != nil {
			t.Fatal(err)
		}
		tok, sec, err := m.IssueString(nym, "age", "30")
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.AddToken(tok, sec); err != nil {
			t.Fatal(err)
		}
		client, err := Dial(addr, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sub.RegisterAll(client)
		client.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("subscriber %d extracted %d CSSs", i, got)
		}
		subs[i] = sub
	}
	return srv, addr, pub, subs
}

func newsDoc(t *testing.T, body string) *document.Document {
	t.Helper()
	doc, err := document.New("news.txt", document.Subdocument{Name: "body", Content: []byte(body)})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// waitStreams polls until the server has registered `want` stream conns
// (subscribe is asynchronous with respect to the client's return).
func waitStreams(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := srv.Streams()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server has %d streams, want %d", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func nextFrame(t *testing.T, st *Stream) *wire.Frame {
	t.Helper()
	if err := st.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	f, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStreamingSnapshotThenDelta covers the push pipeline end to end: a
// subscriber that connects before the first publish receives a snapshot,
// then one delta per churn publish, and its incrementally patched state
// decrypts identically to a full fetch.
func TestStreamingSnapshotThenDelta(t *testing.T) {
	srv, addr, pub, subs := startGroupedServer(t, 4, nil)
	p, _ := env(t)
	client, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("news.txt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	waitStreams(t, srv, 1)

	b1, err := pub.Publish(newsDoc(t, "first edition"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.PublishBroadcast(b1); err != nil {
		t.Fatal(err)
	}
	f := nextFrame(t, st)
	if f.Type != wire.FrameSnapshot {
		t.Fatalf("first frame type = %d, want snapshot", f.Type)
	}
	reader := subs[0]
	if err := reader.ApplySnapshot(f.Snapshot); err != nil {
		t.Fatal(err)
	}
	if got, err := reader.DecryptCurrent("news.txt"); err != nil || string(got["body"]) != "first edition" {
		t.Fatalf("decrypt after snapshot: %q err=%v", got["body"], err)
	}

	// Churn: revoke one subscriber, publish; the stream must carry a delta.
	if err := pub.RevokeSubscription(subs[3].Nym()); err != nil {
		t.Fatal(err)
	}
	b2, err := pub.Publish(newsDoc(t, "second edition"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.PublishBroadcast(b2); err != nil {
		t.Fatal(err)
	}
	f = nextFrame(t, st)
	if f.Type != wire.FrameDelta {
		t.Fatalf("churn frame type = %d, want delta", f.Type)
	}
	if f.Delta.BaseEpoch != b1.Epoch || f.Epoch != b2.Epoch {
		t.Fatalf("delta spans %d→%d, want %d→%d", f.Delta.BaseEpoch, f.Epoch, b1.Epoch, b2.Epoch)
	}
	if err := reader.ApplyDelta(f.Delta); err != nil {
		t.Fatal(err)
	}
	got, err := reader.DecryptCurrent("news.txt")
	if err != nil || string(got["body"]) != "second edition" {
		t.Fatalf("decrypt after delta: %q err=%v", got["body"], err)
	}
	// Cross-check against a full fetch.
	fetched, err := client.Fetch("news.txt")
	if err != nil {
		t.Fatal(err)
	}
	want, err := subs[1].Decrypt(fetched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want["body"], got["body"]) {
		t.Error("streamed state and full fetch decrypt differently")
	}
	// The revoked subscriber is locked out of the new epoch.
	if out, _ := subs[3].Decrypt(fetched); len(out) != 0 {
		t.Error("revoked subscriber still decrypts")
	}
}

// TestStreamingReconnectCatchup: a subscriber reconnecting with its last
// applied epoch receives one delta catch-up when the epoch is retained, and
// a snapshot when it rotated out of the ring.
func TestStreamingReconnectCatchup(t *testing.T) {
	srv, addr, pub, subs := startGroupedServer(t, 3, func(s *Server) { s.SetRetention(3) })
	p, _ := env(t)

	publish := func(body string) *pubsub.Broadcast {
		t.Helper()
		b, err := pub.Publish(newsDoc(t, body))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.PublishBroadcast(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1 := publish("v1")
	if err := pub.RevokeSubscription(subs[2].Nym()); err != nil {
		t.Fatal(err)
	}
	b2 := publish("v2")

	client, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Retained base epoch → delta catch-up.
	st, err := client.Subscribe("news.txt", b1.Epoch, b1.Gen)
	if err != nil {
		t.Fatal(err)
	}
	f := nextFrame(t, st)
	st.Close()
	if f.Type != wire.FrameDelta || f.Delta.BaseEpoch != b1.Epoch || f.Epoch != b2.Epoch {
		t.Fatalf("catch-up frame = type %d epoch %d, want delta %d→%d", f.Type, f.Epoch, b1.Epoch, b2.Epoch)
	}
	reader := subs[0]
	if err := reader.ApplySnapshot(b1); err != nil {
		t.Fatal(err)
	}
	if err := reader.ApplyDelta(f.Delta); err != nil {
		t.Fatal(err)
	}
	if got, err := reader.DecryptCurrent("news.txt"); err != nil || string(got["body"]) != "v2" {
		t.Fatalf("decrypt after catch-up delta: %q err=%v", got["body"], err)
	}

	// Up-to-date base epoch → no catch-up frame, next publish streams a delta.
	st2, err := client.Subscribe("news.txt", b2.Epoch, b2.Gen)
	if err != nil {
		t.Fatal(err)
	}
	waitStreams(t, srv, 1)
	b3 := publish("v3")
	f = nextFrame(t, st2)
	st2.Close()
	if f.Type != wire.FrameDelta || f.Delta.BaseEpoch != b2.Epoch || f.Epoch != b3.Epoch {
		t.Fatalf("up-to-date subscriber got frame type %d (%d→%d), want delta %d→%d",
			f.Type, f.Delta.BaseEpoch, f.Epoch, b2.Epoch, b3.Epoch)
	}
	waitStreams(t, srv, 0)

	// Rotate b1..b3 out of the 3-entry ring, then reconnect from b1: the
	// base is gone, so the server must fall back to a full snapshot.
	publish("v4")
	b5 := publish("v5")
	st3, err := client.Subscribe("news.txt", b1.Epoch, b1.Gen)
	if err != nil {
		t.Fatal(err)
	}
	f = nextFrame(t, st3)
	st3.Close()
	if f.Type != wire.FrameSnapshot || f.Epoch != b5.Epoch {
		t.Fatalf("stale subscriber got frame type %d epoch %d, want snapshot at %d", f.Type, f.Epoch, b5.Epoch)
	}
	fresh := subs[1]
	if err := fresh.ApplySnapshot(f.Snapshot); err != nil {
		t.Fatal(err)
	}
	if got, err := fresh.DecryptCurrent("news.txt"); err != nil || string(got["body"]) != "v5" {
		t.Fatalf("decrypt after snapshot fallback: %q err=%v", got["body"], err)
	}
}

// TestRingBounded: the retention ring must stay at K entries however many
// documents are published, and a fetch for a rotated-out document is served
// with the nearest retained snapshot instead of growing memory forever.
func TestRingBounded(t *testing.T) {
	srv, addr, pub, _ := startGroupedServer(t, 2, func(s *Server) { s.SetRetention(4) })
	p, _ := env(t)
	for i := 0; i < 12; i++ {
		doc, err := document.New(fmt.Sprintf("ed-%d.txt", i), document.Subdocument{Name: "body", Content: []byte("x")})
		if err != nil {
			t.Fatal(err)
		}
		b, err := pub.Publish(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.PublishBroadcast(b); err != nil {
			t.Fatal(err)
		}
	}
	got := srv.RingLen()
	if got != 4 {
		t.Fatalf("ring holds %d entries, want 4", got)
	}

	client, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	b, err := client.Fetch("ed-0.txt") // rotated out
	if err != nil {
		t.Fatal(err)
	}
	if b.DocName != "ed-11.txt" {
		t.Errorf("rotated-out fetch served %q, want the nearest snapshot ed-11.txt", b.DocName)
	}
	if b, err := client.Fetch("ed-11.txt"); err != nil || b.DocName != "ed-11.txt" {
		t.Errorf("retained fetch: doc %q err %v", b.DocName, err)
	}
}

// TestStreamingHeartbeat: idle streams receive heartbeat frames carrying
// the server's newest epoch.
func TestStreamingHeartbeat(t *testing.T) {
	srv, addr, pub, _ := startGroupedServer(t, 2, func(s *Server) { s.SetHeartbeatInterval(30 * time.Millisecond) })
	b, err := pub.Publish(newsDoc(t, "hb"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.PublishBroadcast(b); err != nil {
		t.Fatal(err)
	}
	p, _ := env(t)
	client, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("news.txt", b.Epoch, b.Gen) // up to date: no data frame
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	f := nextFrame(t, st)
	if f.Type != wire.FrameHeartbeat || f.Epoch != b.Epoch {
		t.Fatalf("idle frame = type %d epoch %d, want heartbeat at %d", f.Type, f.Epoch, b.Epoch)
	}
}

// TestSlowConsumerEviction: a subscriber that stops reading must be evicted
// (bounded queue + write deadline), not allowed to pin server memory.
func TestSlowConsumerEviction(t *testing.T) {
	srv, addr, pub, _ := startGroupedServer(t, 2, func(s *Server) { s.SetWriteTimeout(100 * time.Millisecond) })
	p, _ := env(t)
	client, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	waitStreams(t, srv, 1)

	// Never read from st; push megabyte-scale frames until the socket
	// buffer, then the queue, then the write deadline give out. The content
	// changes every round — an unchanged plaintext would be carried forward
	// and produce near-empty deltas that never fill a buffer.
	big := bytes.Repeat([]byte("payload "), 1<<18) // 2 MiB
	deadline := time.Now().Add(15 * time.Second)
	for i := 0; ; i++ {
		doc, err := document.New("news.txt", document.Subdocument{Name: "body", Content: append(big, byte(i))})
		if err != nil {
			t.Fatal(err)
		}
		b, err := pub.Publish(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.PublishBroadcast(b); err != nil {
			t.Fatal(err)
		}
		left := srv.Streams()
		if left == 0 {
			return // evicted
		}
		if time.Now().After(deadline) {
			t.Fatal("slow consumer never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamingChurnRace is the -race smoke the CI step runs: one publisher
// churning memberships while 8 streaming subscribers concurrently apply
// frames and decrypt. Every surviving subscriber must converge on the final
// epoch's plaintext.
func TestStreamingChurnRace(t *testing.T) {
	const nStream = 8
	srv, addr, pub, subs := startGroupedServer(t, nStream+2, nil)
	p, _ := env(t)

	final := []byte("final edition")
	var wg sync.WaitGroup
	errs := make(chan error, nStream)
	for i := 0; i < nStream; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := Dial(addr, p)
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			st, err := client.Subscribe("news.txt", 0, 0)
			if err != nil {
				errs <- err
				return
			}
			defer st.Close()
			reader := subs[i]
			for {
				if err := st.SetReadDeadline(time.Now().Add(20 * time.Second)); err != nil {
					errs <- err
					return
				}
				f, err := st.Next()
				if err != nil {
					errs <- fmt.Errorf("subscriber %d: %w", i, err)
					return
				}
				switch f.Type {
				case wire.FrameSnapshot:
					if err := reader.ApplySnapshot(f.Snapshot); err != nil {
						errs <- err
						return
					}
				case wire.FrameDelta:
					if err := reader.ApplyDelta(f.Delta); err != nil {
						errs <- fmt.Errorf("subscriber %d apply: %w", i, err)
						return
					}
				case wire.FrameHeartbeat:
					continue
				}
				got, err := reader.DecryptCurrent("news.txt")
				if err != nil {
					errs <- err
					return
				}
				if bytes.Equal(got["body"], final) {
					return // converged
				}
			}
		}(i)
	}
	waitStreams(t, srv, nStream)

	// Churn: revoke the two extra subscribers with publishes in between,
	// then the final edition.
	for k := 0; k < 2; k++ {
		b, err := pub.Publish(newsDoc(t, fmt.Sprintf("edition %d", k)))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.PublishBroadcast(b); err != nil {
			t.Fatal(err)
		}
		if err := pub.RevokeSubscription(subs[nStream+k].Nym()); err != nil {
			t.Fatal(err)
		}
	}
	b, err := pub.Publish(newsDoc(t, string(final)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.PublishBroadcast(b); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRestartReseededRingServesDelta models the ppcd-pub warm-restart path:
// publisher state exported as segments, a fresh incarnation restores it, and
// the new server's retention ring is re-seeded with the restored diff bases —
// so a subscriber reconnecting with its pre-restart epoch catches up with a
// delta frame, not a snapshot.
func TestRestartReseededRingServesDelta(t *testing.T) {
	srv, _, pub, subs := startGroupedServer(t, 3, nil)
	b1, err := pub.Publish(newsDoc(t, "pre-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.PublishBroadcast(b1); err != nil {
		t.Fatal(err)
	}
	state, err := pub.ExportStateSegments(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// Fresh incarnation: same policies, restored state, re-seeded ring.
	p, m := env(t)
	acp, err := policy.New("adult", "age >= 18", "news.txt", "body")
	if err != nil {
		t.Fatal(err)
	}
	pub2, err := pubsub.NewPublisher(p, m.PublicKey(), []*policy.ACP{acp}, pubsub.Options{Ell: 8, GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub2.ImportStateSegments(state.Geometry.SegSlots, state.Meta, state.Table, state.Cache, 2); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(pub2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pub2.LastBroadcasts() {
		if err := srv2.PublishBroadcast(b); err != nil {
			t.Fatal(err)
		}
	}
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// Reconnect with the pre-restart epoch: current (no catch-up frame),
	// then the first post-restart publish arrives as a delta.
	client, err := Dial(addr2, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("news.txt", b1.Epoch, b1.Gen)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	waitStreams(t, srv2, 1)

	b2, err := pub2.Publish(newsDoc(t, "post-restart"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.PublishBroadcast(b2); err != nil {
		t.Fatal(err)
	}
	f := nextFrame(t, st)
	if f.Type != wire.FrameDelta || f.Delta.BaseEpoch != b1.Epoch || f.Epoch != b2.Epoch {
		t.Fatalf("post-restart frame type %d epoch %d, want delta %d→%d", f.Type, f.Epoch, b1.Epoch, b2.Epoch)
	}
	reader := subs[0]
	if err := reader.ApplySnapshot(b1); err != nil {
		t.Fatal(err)
	}
	if err := reader.ApplyDelta(f.Delta); err != nil {
		t.Fatal(err)
	}
	if got, err := reader.DecryptCurrent("news.txt"); err != nil || string(got["body"]) != "post-restart" {
		t.Fatalf("decrypt across restart: %q err=%v", got["body"], err)
	}
}

// TestCrashReseededRingServesDelta is the hard-crash counterpart: the
// publisher journals to a store and dies without a snapshot after a publish
// that re-solved a shard (a revocation preceded it). Recovery replays that
// publish's record, so the re-seeded ring holds the pre-crash epoch, the
// first post-crash publish re-solves nothing, and a subscriber reconnecting at
// the pre-crash epoch receives one delta frame and decrypts.
func TestCrashReseededRingServesDelta(t *testing.T) {
	srv, _, pub, subs := startGroupedServer(t, 3, nil)
	dir := t.TempDir()
	key := store.DeriveKey([]byte("transport-crash"))
	st, err := store.Open(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(pub); err != nil {
		t.Fatal(err)
	}
	pub.SetJournal(st)
	if err := st.Snapshot(pub); err != nil { // the registrations predate the journal
		t.Fatal(err)
	}
	if _, err := pub.Publish(newsDoc(t, "before the leave")); err != nil {
		t.Fatal(err)
	}
	if err := pub.RevokeSubscription(subs[2].Nym()); err != nil {
		t.Fatal(err)
	}
	b1, err := pub.Publish(newsDoc(t, "pre-crash"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.PublishBroadcast(b1); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := st.Close(); err != nil { // no snapshot: the crash
		t.Fatal(err)
	}

	p, m := env(t)
	acp, err := policy.New("adult", "age >= 18", "news.txt", "body")
	if err != nil {
		t.Fatal(err)
	}
	pub2, err := pubsub.NewPublisher(p, m.PublicKey(), []*policy.ACP{acp}, pubsub.Options{Ell: 8, GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, key)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec, err := st2.Recover(pub2); err != nil || rec.Replayed == 0 {
		t.Fatalf("crash recovery replayed %d events: %v", rec.Replayed, err)
	}
	pub2.SetJournal(st2)
	srv2, err := NewServer(pub2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pub2.LastBroadcasts() {
		if err := srv2.PublishBroadcast(b); err != nil {
			t.Fatal(err)
		}
	}
	addr2, err := srv2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	client, err := Dial(addr2, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	stream, err := client.Subscribe("news.txt", b1.Epoch, b1.Gen)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	waitStreams(t, srv2, 1)

	b2, err := pub2.Publish(newsDoc(t, "post-crash"))
	if err != nil {
		t.Fatal(err)
	}
	if s := pub2.Stats(); s.Solves != 0 {
		t.Errorf("first publish after the crash solved %d shards", s.Solves)
	}
	if err := srv2.PublishBroadcast(b2); err != nil {
		t.Fatal(err)
	}
	f := nextFrame(t, stream)
	if f.Type != wire.FrameDelta || f.Delta.BaseEpoch != b1.Epoch || f.Epoch != b2.Epoch {
		t.Fatalf("post-crash frame type %d epoch %d, want delta %d→%d", f.Type, f.Epoch, b1.Epoch, b2.Epoch)
	}
	if len(f.Delta.Configs) != 0 {
		t.Errorf("post-crash delta re-ships %d configurations", len(f.Delta.Configs))
	}
	reader := subs[0]
	if err := reader.ApplySnapshot(b1); err != nil {
		t.Fatal(err)
	}
	if err := reader.ApplyDelta(f.Delta); err != nil {
		t.Fatal(err)
	}
	if got, err := reader.DecryptCurrent("news.txt"); err != nil || string(got["body"]) != "post-crash" {
		t.Fatalf("decrypt across the crash: %q err=%v", got["body"], err)
	}
}

// TestSnapshotBuiltOncePerEpochOverTCP: over real sockets, publishes to a
// stream that is current marshal no snapshot, and any number of concurrent
// fetches, joins and an out-of-window reconnect at one epoch marshal one —
// every one of them served wire.MarshalSnapshotFrame's bytes.
func TestSnapshotBuiltOncePerEpochOverTCP(t *testing.T) {
	const fetches, joins = 6, 4
	srv, addr, pub, subs := startGroupedServer(t, 4, func(s *Server) { s.SetRetention(2) })
	p, _ := env(t)
	publish := func(body string) *pubsub.Broadcast {
		t.Helper()
		b, err := pub.Publish(newsDoc(t, body))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.PublishBroadcast(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := publish("edition 0")

	client, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("news.txt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if f := nextFrame(t, st); f.Type != wire.FrameSnapshot {
		t.Fatalf("join answered with frame type %d", f.Type)
	}
	if built, held := srv.Snapshots(); built != 1 || held != int64(len(wire.MarshalSnapshotFrame(first))) {
		t.Fatalf("after one join: %d built, %d bytes held", built, held)
	}

	var last *pubsub.Broadcast
	for k := 1; k <= 5; k++ {
		if k == 3 {
			if err := pub.RevokeSubscription(subs[3].Nym()); err != nil {
				t.Fatal(err)
			}
		}
		last = publish(fmt.Sprintf("edition %d", k))
		if f := nextFrame(t, st); f.Type != wire.FrameDelta || f.Epoch != last.Epoch {
			t.Fatalf("publish %d reached the current stream as frame type %d epoch %d", k, f.Type, f.Epoch)
		}
	}
	if built, held := srv.Snapshots(); built != 1 || held != 0 {
		t.Fatalf("five publishes to a current stream: %d built, %d bytes held; want the join's 1 and 0", built, held)
	}

	want := wire.MarshalSnapshotFrame(last)
	var wg sync.WaitGroup
	errs := make(chan error, fetches+joins+1)
	for i := 0; i < fetches+joins+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, p)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if i < fetches {
				b, err := c.Fetch("news.txt")
				if err == nil && !bytes.Equal(wire.MarshalSnapshotFrame(b), want) {
					err = fmt.Errorf("fetch %d decoded to epoch %d, not the newest frame", i, b.Epoch)
				}
				errs <- err
				return
			}
			lastEpoch, lastGen := uint64(0), uint64(0)
			if i == fetches+joins {
				lastEpoch, lastGen = first.Epoch, first.Gen // rotated out of a ring of 2
			}
			js, err := c.Subscribe("news.txt", lastEpoch, lastGen)
			if err != nil {
				errs <- err
				return
			}
			defer js.Close()
			if err := js.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
				errs <- err
				return
			}
			f, raw, err := js.NextRaw()
			if err == nil && (f.Type != wire.FrameSnapshot || !bytes.Equal(raw, want)) {
				err = fmt.Errorf("join %d received frame type %d, %d bytes; want the %d-byte snapshot", i, f.Type, len(raw), len(want))
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if built, held := srv.Snapshots(); built != 2 || held != int64(len(want)) {
		t.Fatalf("%d fetches, %d joins and a reconnect at one epoch: %d built in all, %d bytes held; want 2 and %d",
			fetches, joins, built, held, len(want))
	}
}
