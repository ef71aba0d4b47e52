package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"ppcd/internal/idtoken"
	"ppcd/internal/ocbe"
	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

// message frames a payload the way writeMsg does.
func message(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// field is a u32-length-prefixed string field.
func field(s string) []byte { return append(binary.BigEndian.AppendUint32(nil, uint32(len(s))), s...) }

func u32(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// nestedEnvelope encodes an envelope with depth levels of single
// sub-envelopes below it.
func nestedEnvelope(depth int) []byte {
	subs := uint32(0)
	if depth > 0 {
		subs = 1
	}
	// op, X0 absent, ell, eta, c, no bit pairs, the sub-envelope count.
	env := cat([]byte{byte(ocbe.GE), 0}, u32(0), u32(0), u32(0), u32(0), u32(subs))
	if depth > 0 {
		env = append(env, nestedEnvelope(depth-1)...)
	}
	return env
}

// liveTraffic registers one subscriber through a real server, capturing the
// payloads: the requests as sent and the replies as received.
func liveTraffic(t *testing.T) (reqs [][]byte, replies map[wire.Kind][]byte) {
	t.Helper()
	p, m := env(t)
	srv, addr, pub := startServer(t)
	tok, sec, err := m.IssueString("pn-live", "age", "30")
	if err != nil {
		t.Fatal(err)
	}
	cond := pub.Conditions()[0]
	_, oreq, err := ocbe.NewReceiver(p, sec.Value, sec.Blinding).Prepare(ocbe.Predicate{Op: cond.Op, X0: idtoken.EncodeValue(p.Order(), cond.Value)}, pub.Ell())
	if err != nil {
		t.Fatal(err)
	}
	b, err := pub.Publish(newsDoc(t, "story"))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.PublishBroadcast(b); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	replies = make(map[wire.Kind][]byte)
	for _, req := range []*wire.Request{
		{Kind: wire.KindInfo},
		{Kind: wire.KindRegisterBatch, Batch: []*pubsub.RegistrationRequest{{Token: tok, CondID: cond.ID(), OCBE: oreq}}},
		{Kind: wire.KindFetch, Doc: "news.txt"},
	} {
		raw := wire.MarshalRequest(req)
		if err := writeMsg(conn, raw); err != nil {
			t.Fatal(err)
		}
		rep, err := (&msgReader{r: conn}).next()
		if err != nil || rep[0] != wire.StatusOK {
			t.Fatalf("live %d request: %v", req.Kind, err)
		}
		reqs, replies[req.Kind] = append(reqs, raw), rep
	}
	reqs = append(reqs, wire.MarshalRequest(&wire.Request{Kind: wire.KindSubscribe, Doc: "news.txt", LastEpoch: 1, LastGen: 2}))
	return reqs, replies
}

// sample picks at most 24 of the cuts 0..n-1, spread over them.
func sample(n int) []int {
	var cuts []int
	for i := 0; i < 24 && i < n; i++ {
		cuts = append(cuts, i*n/min(n, 24))
	}
	return cuts
}

// closesOn sends raw to the server and requires it to close the connection
// without answering.
func closesOn(t *testing.T, addr, name string, raw []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Errorf("%s: the server answered %d bytes (%v) instead of closing", name, n, err)
	}
}

// hostileReply is a reply payload and the kind of request it answers.
type hostileReply struct {
	kind wire.Kind
	msg  []byte
}

// replyWith starts a server that answers one request with raw and hangs up.
func replyWith(t *testing.T, raw []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := (&msgReader{r: conn}).next(); err == nil {
			conn.Write(raw)
		}
	}()
	return ln.Addr().String()
}

// TestHostileMessages feeds both ends of the RPC what a hostile peer could
// send: a truncation at every byte of live traffic, counts past the input,
// an unknown kind or status, an unknown operator, a condition that fails
// Validate, envelopes nested five deep and an oversize length prefix. Every
// one is an error — never a panic — the server closes the connection
// rather than leave its handler waiting, and the client returns.
func TestHostileMessages(t *testing.T) {
	p, _ := env(t)
	reqs, replies := liveTraffic(t)
	_, addr, _ := startServer(t)

	ok := func(parts ...[]byte) []byte { return cat(append([][]byte{{wire.StatusOK}}, parts...)...) }
	info := func(conds ...[]byte) []byte { return ok(u32(8), field(""), u32(uint32(len(conds))), cat(conds...)) }
	batchReply := func(env []byte) []byte {
		return ok([]byte{wire.Version}, u32(1), field("c"), field(""), []byte{1}, env)
	}
	badRequests := map[string][]byte{
		"unknown kind":               {9},
		"batch count past input":     cat([]byte{byte(wire.KindRegisterBatch), wire.Version}, u32(1<<16)),
		"bit count past input":       cat([]byte{byte(wire.KindRegisterBatch), wire.Version}, u32(1), field(""), field(""), u32(0), u32(0), field(""), u32(0), u32(1<<16)),
		"bit commitments past input": cat([]byte{byte(wire.KindRegisterBatch), wire.Version}, u32(1), field(""), field(""), u32(0), u32(0), field(""), u32(0), u32(1), u32(1<<16)),
	}
	badReplies := map[string]hostileReply{
		"unknown status":                {wire.KindInfo, []byte{7}},
		"refusal without text":          {wire.KindInfo, []byte{wire.StatusError}},
		"conditions past input":         {wire.KindInfo, ok(u32(8), field(""), u32(1000))},
		"unknown operator":              {wire.KindInfo, info(cat(field("age"), []byte{9}, field("18")))},
		"condition failing Validate":    {wire.KindInfo, info(cat(field("age"), []byte{byte(ocbe.GE)}, field("eighteen")))},
		"results past input":            {wire.KindRegisterBatch, ok([]byte{wire.Version}, u32(1<<20))},
		"envelopes nested 5 deep":       {wire.KindRegisterBatch, batchReply(nestedEnvelope(5))},
		"fetch answered by a heartbeat": {wire.KindFetch, ok(wire.MarshalHeartbeatFrame(1))},
	}
	if _, err := wire.UnmarshalReply(wire.KindRegisterBatch, batchReply(nestedEnvelope(4))); err != nil {
		t.Fatalf("envelopes nested 4 deep refused: %v", err)
	}
	if _, err := wire.UnmarshalReply(wire.KindInfo, info(cat(field("age"), []byte{byte(ocbe.GE)}, field("18")))); err != nil {
		t.Fatalf("a valid condition refused: %v", err)
	}
	for _, req := range reqs {
		for cut := 0; cut < len(req); cut++ {
			if _, err := wire.UnmarshalRequest(req[:cut]); err == nil {
				t.Fatalf("request of kind %d cut at %d of %d bytes accepted", req[0], cut, len(req))
			}
		}
		for _, cut := range sample(len(req)) {
			badRequests[fmt.Sprintf("request of kind %d cut at %d", req[0], cut)] = req[:cut]
		}
	}
	for kind, rep := range replies {
		for cut := 0; cut < len(rep); cut++ {
			if _, err := wire.UnmarshalReply(kind, rep[:cut]); err == nil {
				t.Fatalf("reply to kind %d cut at %d of %d bytes accepted", kind, cut, len(rep))
			}
		}
		for _, cut := range sample(len(rep)) {
			badReplies[fmt.Sprintf("reply to kind %d cut at %d", kind, cut)] = hostileReply{kind, rep[:cut]}
		}
	}

	for name, payload := range badRequests {
		if _, err := wire.UnmarshalRequest(payload); err == nil {
			t.Errorf("%s: request accepted", name)
		}
		closesOn(t, addr, name, message(payload))
	}
	closesOn(t, addr, "oversize length prefix", u32(maxRequestBytes+1))

	for name, bad := range badReplies {
		if _, err := wire.UnmarshalReply(bad.kind, bad.msg); err == nil {
			t.Errorf("%s: reply accepted", name)
		}
		c, err := Dial(replyWith(t, message(bad.msg)), p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.roundTrip(&wire.Request{Kind: bad.kind}); err == nil {
			t.Errorf("%s: the client accepted the reply", name)
		}
		c.Close()
	}
	c, err := Dial(replyWith(t, u32(maxRequestBytes+1)), p)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.roundTrip(&wire.Request{Kind: wire.KindInfo}); err == nil {
		t.Error("oversize length prefix: the client accepted the reply")
	}
}

// TestReadMsgAllocatesOnce: a message under readChunk costs its payload and
// nothing else.
func TestReadMsgAllocatesOnce(t *testing.T) {
	raw := message(make([]byte, 300<<10))
	r := bytes.NewReader(raw)
	in := &msgReader{r: r}
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(raw)
		if _, err := in.next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("reading a 300 KiB message made %v allocations, want 1", allocs)
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStalledMessagesCostTheirBytes: eight connections to a server and one
// client stream are each announced a 64 MiB message, sent 10 bytes of it
// and left waiting. Together they hold about 9 MiB — what readChunk lets
// each allocate ahead of the bytes — not 9 × 64 MiB, and closing the server
// (and the stream's server) unblocks every one of them.
func TestStalledMessagesCostTheirBytes(t *testing.T) {
	const conns = 8
	srv, addr, _ := startServer(t)
	stall := append(u32(maxRequestBytes), make([]byte, 10)...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	upstream := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		(&msgReader{r: conn}).next() // the subscribe
		conn.Write(stall)
		upstream <- conn
	}()
	p, _ := env(t)
	client, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.addr = ln.Addr().String()

	before := liveHeap()
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(stall); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Subscribe("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	streamErr := make(chan error, 1)
	go func() {
		_, err := st.Next()
		streamErr <- err
	}()

	// Wait until (nearly) every read holds its chunk, then weigh them all.
	deadline := time.Now().Add(10 * time.Second)
	for liveHeap()-before < conns*readChunk {
		if time.Now().After(deadline) {
			t.Fatalf("the stalled reads never took their %d chunks", conns+1)
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	if grown := liveHeap() - before; grown >= 16<<20 {
		t.Fatalf("%d stalled reads hold %d MiB", conns+1, grown>>20)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("closing the server left a stalled handler behind")
	}
	(<-upstream).Close()
	select {
	case err := <-streamErr:
		if err == nil {
			t.Fatal("a stream cut mid-message delivered a frame")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("closing its server left the stream blocked")
	}
}

// TestSubscribeAtClosingServer: a subscribe that reaches a server whose
// fan-out has already shut down is answered with an error status, which
// the stream returns as a refusal.
func TestSubscribeAtClosingServer(t *testing.T) {
	srv, addr, _ := startServer(t)
	srv.hub.Close() // what Close does to the fan-out, with the listener still up
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
	st.SetReadDeadline(time.Now().Add(10 * time.Second))
	var refused *wire.RemoteError
	if _, err := st.Next(); !errors.As(err, &refused) || refused.Msg != "transport: server closing" {
		t.Fatalf("subscribe at a closing server: %v", err)
	}
}
