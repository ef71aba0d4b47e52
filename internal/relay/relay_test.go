package relay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppcd/internal/core"
	"ppcd/internal/core/coretest"
	"ppcd/internal/document"
	"ppcd/internal/idtoken"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/schnorr"
	"ppcd/internal/transport"
	"ppcd/internal/wire"
)

var (
	once   sync.Once
	params *pedersen.Params
	mgr    *idtoken.Manager
)

func env(t *testing.T) (*pedersen.Params, *idtoken.Manager) {
	t.Helper()
	once.Do(func() {
		p, err := pedersen.Setup(schnorr.Must2048(), []byte("relay-test"))
		if err != nil {
			panic(err)
		}
		m, err := idtoken.NewManager(p)
		if err != nil {
			panic(err)
		}
		params, mgr = p, m
	})
	return params, mgr
}

func newPublisher(t *testing.T) *pubsub.Publisher {
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
	return pub
}

// startOrigin spins up a publisher origin server with a fast heartbeat.
func startOrigin(t *testing.T) (*transport.Server, string, *pubsub.Publisher) {
	t.Helper()
	pub := newPublisher(t)
	srv, err := transport.NewServer(pub)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr, pub
}

// startRelay chains a relay onto upstream and waits for nothing: the
// upstream loop connects asynchronously.
func startRelay(t *testing.T, upstream string, opt *Options) (*Relay, string) {
	t.Helper()
	p, _ := env(t)
	if opt == nil {
		opt = &Options{ReconnectDelay: 50 * time.Millisecond}
	}
	r, err := New(upstream, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := r.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, addr
}

// registerVia registers a fresh subscriber through the given address —
// exercising the registration proxy chain when addr is a relay.
func registerVia(t *testing.T, addr, nym string) *pubsub.Subscriber {
	t.Helper()
	p, m := env(t)
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
	client, err := transport.Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	got, err := sub.RegisterAll(client)
	if err != nil {
		t.Fatalf("registering %s via %s: %v", nym, addr, err)
	}
	if got != 1 {
		t.Fatalf("%s extracted %d CSSs, want 1", nym, got)
	}
	return sub
}

func newsDoc(t *testing.T, body string) *document.Document {
	t.Helper()
	doc, err := document.New("news.txt", document.Subdocument{Name: "body", Content: []byte(body)})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func waitEpoch(t *testing.T, r *Relay, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.LastEpoch() < epoch {
		if time.Now().After(deadline) {
			t.Fatalf("relay stuck at epoch %d, want %d", r.LastEpoch(), epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func publish(t *testing.T, srv *transport.Server, pub *pubsub.Publisher, body string) *pubsub.Broadcast {
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

// TestRelayChainChurn is the depth-2 tree end-to-end property: origin →
// relay1 → relay2, subscribers registered AND streaming through the edge
// relay, membership churn at the origin — every surviving consumer
// converges on the final epoch and decrypts byte-identically to a direct
// fetch from the origin.
func TestRelayChainChurn(t *testing.T) {
	const nStream = 4
	srv, originAddr, pub := startOrigin(t)
	r1, r1Addr := startRelay(t, originAddr, nil)
	r2, r2Addr := startRelay(t, r1Addr, nil)
	_ = r1
	p, _ := env(t)

	// Registration proxies through both relays to the origin.
	subs := make([]*pubsub.Subscriber, nStream+2)
	for i := range subs {
		subs[i] = registerVia(t, r2Addr, fmt.Sprintf("pn-chain-%d", i))
	}

	final := []byte("final edition")
	var wg sync.WaitGroup
	errs := make(chan error, nStream)
	for i := 0; i < nStream; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client, err := transport.Dial(r2Addr, p)
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
					errs <- fmt.Errorf("consumer %d: %w", i, err)
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
						errs <- fmt.Errorf("consumer %d apply: %w", i, err)
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
	deadline := time.Now().Add(10 * time.Second)
	for r2.Streams() < nStream {
		if time.Now().After(deadline) {
			t.Fatalf("edge relay has %d streams, want %d", r2.Streams(), nStream)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Churn at the origin: two revocations interleaved with publishes,
	// then the final edition — all flowing through the chain.
	var lastB *pubsub.Broadcast
	for k := 0; k < 2; k++ {
		publish(t, srv, pub, fmt.Sprintf("edition %d", k))
		if err := pub.RevokeSubscription(subs[nStream+k].Nym()); err != nil {
			t.Fatal(err)
		}
	}
	lastB = publish(t, srv, pub, string(final))
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Byte-identical re-serve: a fetch via the edge relay returns the same
	// broadcast as a direct fetch from the origin (deterministic marshal).
	waitEpoch(t, r2, lastB.Epoch)
	viaRelay, err := transport.Dial(r2Addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer viaRelay.Close()
	bRelay, err := viaRelay.Fetch("news.txt")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := transport.Dial(originAddr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	bOrigin, err := direct.Fetch("news.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.MarshalSnapshotFrame(bRelay), wire.MarshalSnapshotFrame(bOrigin)) {
		t.Fatal("relay-fetched broadcast differs from the origin's")
	}
	if viaRelay.Origin() == "" {
		t.Fatal("relay did not advertise an origin address")
	}
}

// TestRelayReconnectDeltaCatchup: a subscriber that reconnects to the relay
// presenting its last applied (epoch, Gen) receives exactly one delta, not
// a snapshot — the relay's own retention ring serves the catch-up.
func TestRelayReconnectDeltaCatchup(t *testing.T) {
	srv, originAddr, pub := startOrigin(t)
	r, rAddr := startRelay(t, originAddr, nil)
	p, _ := env(t)
	reader := registerVia(t, rAddr, "pn-catchup")

	b1 := publish(t, srv, pub, "first")
	waitEpoch(t, r, b1.Epoch)

	client, err := transport.Dial(rAddr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("news.txt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := st.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.FrameSnapshot {
		t.Fatalf("initial frame type %d, want snapshot", f.Type)
	}
	if err := reader.ApplySnapshot(f.Snapshot); err != nil {
		t.Fatal(err)
	}
	st.Close() // blip: the consumer goes away holding epoch b1

	b2 := publish(t, srv, pub, "second")
	waitEpoch(t, r, b2.Epoch)

	st2, err := client.Subscribe("news.txt", b1.Epoch, b1.Gen)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	f2, err := st2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f2.Type != wire.FrameDelta || f2.Delta.BaseEpoch != b1.Epoch || f2.Epoch != b2.Epoch {
		t.Fatalf("catch-up frame type %d epoch %d, want delta %d→%d", f2.Type, f2.Epoch, b1.Epoch, b2.Epoch)
	}
	if err := reader.ApplyDelta(f2.Delta); err != nil {
		t.Fatal(err)
	}
	got, err := reader.DecryptCurrent("news.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got["body"], []byte("second")) {
		t.Fatalf("decrypted %q after delta catch-up", got["body"])
	}
}

// TestRelayOriginRestartGenMismatch: the origin restarts as a fresh
// incarnation (new Gen, epoch numbers colliding with the old ones). The
// relay must detect the generation break, reset, and re-serve the new
// incarnation via a snapshot — never a delta spliced across generations.
func TestRelayOriginRestartGenMismatch(t *testing.T) {
	pub1 := newPublisher(t)
	srv1, err := transport.NewServer(pub1)
	if err != nil {
		t.Fatal(err)
	}
	originAddr, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r, rAddr := startRelay(t, originAddr, &Options{ReconnectDelay: 20 * time.Millisecond})
	p, _ := env(t)

	reader1 := registerVia(t, rAddr, "pn-gen-a")
	b1, err := pub1.Publish(newsDoc(t, "generation one"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.PublishBroadcast(b1); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, r, b1.Epoch)
	_ = reader1

	// Subscriber holding generation one state stays connected across the
	// origin restart.
	client, err := transport.Dial(rAddr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("news.txt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	f, err := st.Next()
	if err != nil || f.Type != wire.FrameSnapshot || f.Snapshot.Gen != b1.Gen {
		t.Fatalf("pre-restart frame: %v %+v", err, f)
	}

	// Origin dies and is replaced by a fresh incarnation on the same
	// address: empty table, new Gen, epochs starting over.
	srv1.Close()
	pub2 := newPublisher(t)
	srv2, err := transport.NewServer(pub2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Listen(originAddr); err != nil {
		t.Fatalf("rebinding origin address: %v", err)
	}
	defer srv2.Close()
	if pub2.Generation() == b1.Gen {
		t.Fatal("fresh incarnation kept the old generation")
	}

	reader2 := registerVia(t, originAddr, "pn-gen-b")
	b2, err := pub2.Publish(newsDoc(t, "generation two"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.PublishBroadcast(b2); err != nil {
		t.Fatal(err)
	}

	// The relay reconnects (its subscribe presents the generation-one
	// epoch; the new origin does not retain it and answers with a
	// snapshot). The connected downstream subscriber must see the new
	// generation as a snapshot frame.
	deadline := time.Now().Add(15 * time.Second)
	var got *wire.Frame
	for {
		if err := st.SetReadDeadline(time.Now().Add(15 * time.Second)); err != nil {
			t.Fatal(err)
		}
		f, err := st.Next()
		if err != nil {
			t.Fatalf("downstream stream broke across origin restart: %v", err)
		}
		if f.Type == wire.FrameSnapshot && f.Snapshot.Gen == b2.Gen {
			got = f
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("new generation never reached the downstream subscriber")
		}
	}
	if err := reader2.ApplySnapshot(got.Snapshot); err != nil {
		t.Fatal(err)
	}
	plain, err := reader2.DecryptCurrent("news.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain["body"], []byte("generation two")) {
		t.Fatalf("decrypted %q across generations", plain["body"])
	}
	if r.Stats().Resets == 0 && r.Stats().Reconnects < 2 {
		t.Fatalf("relay stats show no recovery: %+v", r.Stats())
	}
}

// TestRelaySlowDownstreamEviction: a downstream consumer that never reads
// is evicted at the relay (bounded queue + write deadline), without
// stalling the relay's other work.
func TestRelaySlowDownstreamEviction(t *testing.T) {
	srv, originAddr, pub := startOrigin(t)
	r, rAddr := startRelay(t, originAddr, &Options{
		QueueDepth:     1,
		WriteTimeout:   100 * time.Millisecond,
		ReconnectDelay: 50 * time.Millisecond,
	})
	p, _ := env(t)
	registerVia(t, rAddr, "pn-slow")

	b1 := publish(t, srv, pub, "edition 0")
	waitEpoch(t, r, b1.Epoch)

	client, err := transport.Dial(rAddr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("news.txt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	deadline := time.Now().Add(10 * time.Second)
	for r.Streams() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("relay never registered the stream")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Never read: megabyte-scale editions (fresh content each round, so the
	// deltas stay megabyte-scale too) fill the socket buffer, then the
	// 1-deep queue, then the write deadline — and the relay evicts.
	big := bytes.Repeat([]byte("payload "), 1<<18) // 2 MiB
	deadline = time.Now().Add(20 * time.Second)
	for k := 1; ; k++ {
		b := publish(t, srv, pub, string(append(big, byte(k))))
		waitEpoch(t, r, b.Epoch)
		if r.Streams() == 0 {
			return // evicted
		}
		if time.Now().After(deadline) {
			t.Fatal("slow downstream never evicted at the relay")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// nextData reads the stream's next snapshot or delta frame with its bytes.
func nextData(t *testing.T, st *transport.Stream) (*wire.Frame, []byte) {
	t.Helper()
	for {
		if err := st.SetReadDeadline(time.Now().Add(15 * time.Second)); err != nil {
			t.Fatal(err)
		}
		f, raw, err := st.NextRaw()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.FrameHeartbeat {
			return f, raw
		}
	}
}

// TestRelaySnapshotsOnDemand: a relay serves the snapshot frame it received
// upstream without marshaling, lets go of it when the next delta lands,
// marshals nothing while its streams are current — nor does the origin
// behind it — and builds an epoch's snapshot once when a joiner or fetch
// asks, as the origin's bytes.
func TestRelaySnapshotsOnDemand(t *testing.T) {
	srv, originAddr, pub := startOrigin(t)
	p, _ := env(t)
	registerVia(t, originAddr, "pn-lazy")
	b := publish(t, srv, pub, "edition 0")
	r, rAddr := startRelay(t, originAddr, nil)
	waitEpoch(t, r, b.Epoch)

	upstream := wire.MarshalSnapshotFrame(b)
	if s := r.Stats(); s.Snapshots != 1 || s.SnapshotsBuilt != 0 || s.SnapshotBytesHeld != int64(len(upstream)) {
		t.Fatalf("relay holding the upstream snapshot: %+v, want %d bytes held and none built", s, len(upstream))
	}
	client, err := transport.Dial(rAddr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("news.txt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if f, raw := nextData(t, st); f.Type != wire.FrameSnapshot || !bytes.Equal(raw, upstream) {
		t.Fatalf("join at the relay: frame type %d, %d bytes; want the upstream's %d", f.Type, len(raw), len(upstream))
	}
	if fetched, err := client.Fetch("news.txt"); err != nil || !bytes.Equal(wire.MarshalSnapshotFrame(fetched), upstream) {
		t.Fatalf("fetch at the relay: %v", err)
	}
	if s := r.Stats(); s.SnapshotsBuilt != 0 || s.SnapshotBytesHeld != int64(len(upstream)) {
		t.Fatalf("serving the upstream snapshot: %+v, want it held once and none built", s)
	}
	originBuilt, _ := srv.Snapshots() // the relay's own join

	for k := 1; k <= 50; k++ {
		b = publish(t, srv, pub, fmt.Sprintf("edition %d", k))
		if f, _ := nextData(t, st); f.Type != wire.FrameDelta || f.Epoch != b.Epoch {
			t.Fatalf("publish %d reached the relay's stream as frame type %d epoch %d", k, f.Type, f.Epoch)
		}
		if k == 1 {
			if s := r.Stats(); s.SnapshotBytesHeld != 0 {
				t.Fatalf("upstream snapshot still held after the next delta landed: %+v", s)
			}
		}
	}
	built, held := srv.Snapshots()
	if s := r.Stats(); built != originBuilt || held != 0 || s.SnapshotsBuilt != 0 || s.SnapshotBytesHeld != 0 || s.Deltas != 50 {
		t.Fatalf("50 publishes to current streams: origin %d built (was %d) / %d held, relay %+v", built, originBuilt, held, s)
	}

	// A fetch and a joiner at the newest epoch: one build, the origin's bytes.
	want := wire.MarshalSnapshotFrame(b)
	if fetched, err := client.Fetch("news.txt"); err != nil || !bytes.Equal(wire.MarshalSnapshotFrame(fetched), want) {
		t.Fatalf("fetch at the relay after churn: %v", err)
	}
	st2, err := client.Subscribe("news.txt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if f, raw := nextData(t, st2); f.Type != wire.FrameSnapshot || !bytes.Equal(raw, want) {
		t.Fatalf("late join at the relay: frame type %d, %d bytes; want the origin's %d", f.Type, len(raw), len(want))
	}
	if s := r.Stats(); s.SnapshotsBuilt != 1 || s.SnapshotBytesHeld != int64(len(want)) {
		t.Fatalf("a fetch and a join at one epoch: %+v, want one build of %d bytes", s, len(want))
	}
	if built, _ := srv.Snapshots(); built != originBuilt {
		t.Fatalf("the relay's demand built %d snapshots at the origin", built-originBuilt)
	}
}

// TestRelayExpandsNoNonces: a relay decodes, applies, diffs and re-marshals
// headers as X and a seed. Five membership changes and fifteen republishes flow
// origin → relay → stream; the publisher expands one seed per session that
// solves anything, and between a publish returning and its delta leaving the
// relay — the relay's whole share of the work — nothing does. A joiner's
// snapshot, built by the relay, costs none either, and neither the frames nor
// the state behind them hold a nonce.
func TestRelayExpandsNoNonces(t *testing.T) {
	srv, originAddr, pub := startOrigin(t)
	p, _ := env(t)
	var nyms []string
	for i := 0; i < 6; i++ {
		nyms = append(nyms, registerVia(t, originAddr, fmt.Sprintf("pn-seed-%d", i)).Nym())
	}
	b := publish(t, srv, pub, "edition 0")
	r, rAddr := startRelay(t, originAddr, nil)
	waitEpoch(t, r, b.Epoch)
	client, err := transport.Dial(rAddr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("news.txt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if f, _ := nextData(t, st); f.Type != wire.FrameSnapshot || coretest.ListedNonces(f) != 0 {
		t.Fatalf("join at the relay: frame type %d holding %d nonces", f.Type, coretest.ListedNonces(f))
	}

	headers := 0
	for k := 1; k <= 20; k++ {
		solves := pub.Stats().Solves
		if k%2 == 1 && k/2 < len(nyms)-1 {
			if err := pub.RevokeSubscription(nyms[k/2]); err != nil {
				t.Fatal(err)
			}
		}
		before := core.NonceExpansions()
		b = publish(t, srv, pub, fmt.Sprintf("edition %d", k))
		published := core.NonceExpansions()
		want := uint64(0)
		if pub.Stats().Solves > solves {
			want = 1
		}
		if published-before != want {
			t.Fatalf("publish %d: the origin expanded %d seeds for %d solves", k, published-before, pub.Stats().Solves-solves)
		}
		f, _ := nextData(t, st)
		if f.Type != wire.FrameDelta || f.Epoch != b.Epoch {
			t.Fatalf("publish %d reached the relay's stream as frame type %d epoch %d", k, f.Type, f.Epoch)
		}
		if n := core.NonceExpansions() - published; n != 0 {
			t.Fatalf("publish %d: %d seeds expanded on the way through the relay", k, n)
		}
		if n := coretest.ListedNonces(f); n != 0 {
			t.Fatalf("publish %d: the decoded delta holds %d nonces", k, n)
		}
		for _, cp := range f.Delta.Configs {
			if cp.Grouped != nil {
				headers += len(cp.Grouped.Headers)
			}
		}
	}
	if headers < 3 {
		t.Fatalf("20 publishes shipped %d headers through the relay; the churn did not reach it", headers)
	}
	before := core.NonceExpansions()
	st2, err := client.Subscribe("news.txt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if f, raw := nextData(t, st2); f.Type != wire.FrameSnapshot || !bytes.Equal(raw, wire.MarshalSnapshotFrame(b)) || coretest.ListedNonces(f) != 0 {
		t.Fatalf("late join at the relay: frame type %d, %d bytes", f.Type, len(raw))
	}
	if n := core.NonceExpansions() - before; n != 0 || r.Stats().SnapshotsBuilt != 1 {
		t.Fatalf("a snapshot built at the relay expanded %d seeds (%d built)", n, r.Stats().SnapshotsBuilt)
	}
	if n := coretest.ListedNonces(pub.LastBroadcasts()); n != 0 {
		t.Fatalf("the origin's diff bases hold %d nonces", n)
	}
}

// TestRelayChainMiddleRestart: origin → r1 → r2 → subscriber. The middle
// relay dies, epochs pass, and a fresh r1 (stateless: empty ring) takes its
// address. r2 reconnects, is reset onto a snapshot r1 builds or forwards,
// and the subscriber behind it converges; later epochs flow as deltas
// again and the edge serves the origin's bytes.
func TestRelayChainMiddleRestart(t *testing.T) {
	srv, originAddr, pub := startOrigin(t)
	p, _ := env(t)
	opt := &Options{ReconnectDelay: 20 * time.Millisecond}
	r1, r1Addr := startRelay(t, originAddr, opt)
	r2, r2Addr := startRelay(t, r1Addr, opt)
	reader := registerVia(t, r2Addr, "pn-middle")

	client, err := transport.Dial(r2Addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	st, err := client.Subscribe("news.txt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// follow applies frames until the subscriber decrypts body.
	follow := func(body string) {
		t.Helper()
		for {
			f, _ := nextData(t, st)
			var err error
			if f.Type == wire.FrameSnapshot {
				err = reader.ApplySnapshot(f.Snapshot)
			} else {
				err = reader.ApplyDelta(f.Delta)
			}
			if err != nil {
				t.Fatalf("applying frame type %d epoch %d: %v", f.Type, f.Epoch, err)
			}
			if got, err := reader.DecryptCurrent("news.txt"); err == nil && string(got["body"]) == body {
				return
			}
		}
	}
	publish(t, srv, pub, "before")
	follow("before")

	r1.Close()
	publish(t, srv, pub, "missed 1")
	publish(t, srv, pub, "missed 2")
	fresh, err := New(originAddr, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Listen(r1Addr); err != nil {
		t.Fatalf("rebinding the middle relay's address: %v", err)
	}
	defer fresh.Close()
	follow("missed 2")

	last := publish(t, srv, pub, "after")
	follow("after")
	waitEpoch(t, r2, last.Epoch)
	viaEdge, err := client.Fetch("news.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire.MarshalSnapshotFrame(viaEdge), wire.MarshalSnapshotFrame(last)) {
		t.Fatal("edge relay serves different bytes from the origin's after the middle restarted")
	}
	if s := r2.Stats(); s.Reconnects < 2 {
		t.Fatalf("edge relay never reconnected: %+v", s)
	}
}

// countingForwarder relays TCP connections to addr and counts the ones it
// accepted.
func countingForwarder(t *testing.T, addr string) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := new(atomic.Int64)
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			out, err := net.Dial("tcp", addr)
			if err != nil {
				in.Close()
				continue
			}
			go func() { io.Copy(out, in); out.Close() }()
			go func() { io.Copy(in, out); in.Close() }()
		}
	}()
	return ln.Addr().String(), accepted
}

// TestRelayKeepsUpstreamOnRefusal: the origin's refusals of an empty batch
// and of one past the 4096-item cap reach the subscriber through the relay
// as the origin's own text, and the relay's registration proxy keeps its
// upstream connection across them — after both refusals and a good
// registration the origin has accepted exactly one connection from it.
func TestRelayKeepsUpstreamOnRefusal(t *testing.T) {
	_, originAddr, _ := startOrigin(t)
	upstream, accepted := countingForwarder(t, originAddr)
	p, _ := env(t)
	r, err := New(upstream, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	// The relay's downstream side alone: its upstream stream would be
	// another connection through the forwarder.
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := transport.Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	over := pubsub.MaxRegistrationBatch + 1
	for _, tc := range []struct {
		batch []*pubsub.RegistrationRequest
		want  string
	}{
		{nil, "pubsub: empty registration batch"},
		{make([]*pubsub.RegistrationRequest, over), fmt.Sprintf("pubsub: registration batch of %d exceeds limit %d", over, pubsub.MaxRegistrationBatch)},
	} {
		var refused *wire.RemoteError
		if _, err := client.RegisterBatch(tc.batch); !errors.As(err, &refused) || refused.Msg != tc.want {
			t.Fatalf("a batch of %d through the relay: %v, want the refusal %q", len(tc.batch), err, tc.want)
		}
	}
	registerVia(t, addr, "pn-after-refusals")
	if n := accepted.Load(); n != 1 {
		t.Fatalf("the origin accepted %d connections from the relay's proxy, want 1", n)
	}
}

// TestRelayLastEpochNotAheadOfFetch: once LastEpoch names an epoch, a fetch
// at the relay is served that epoch (or a later one) — the position is
// recorded after the ring has it, not before.
func TestRelayLastEpochNotAheadOfFetch(t *testing.T) {
	srv, originAddr, pub := startOrigin(t)
	r, rAddr := startRelay(t, originAddr, nil)
	p, _ := env(t)
	registerVia(t, rAddr, "pn-position")
	client, err := transport.Dial(rAddr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for k := 0; k < 40; k++ {
		b := publish(t, srv, pub, fmt.Sprintf("edition %d", k))
		deadline := time.Now().Add(10 * time.Second)
		for r.LastEpoch() < b.Epoch && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		got, err := client.Fetch("news.txt")
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch < b.Epoch {
			t.Fatalf("relay reports epoch %d and serves %d", r.LastEpoch(), got.Epoch)
		}
	}
}
