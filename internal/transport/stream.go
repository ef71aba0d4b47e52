// Streaming dissemination: long-lived subscribe connections over which the
// server pushes epoch-stamped wire frames. The fan-out itself — marshal
// once, bounded per-connection queues, slow-consumer eviction, heartbeats —
// lives in internal/fanout; this file holds the subscriber-side Stream and
// the server-side defaults.
package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"ppcd/internal/wire"
)

const defaultHeartbeat = 30 * time.Second

// Stream is a subscriber-side broadcast stream: a dedicated connection on
// which the server pushes snapshot, delta and heartbeat frames.
type Stream struct {
	conn      net.Conn
	in        msgReader
	bytesRead atomic.Int64
}

// Subscribe opens a streaming connection. doc filters to one document ("" =
// all); lastEpoch/lastGen are the subscriber's last applied epoch and its
// publisher generation (0, 0 = none; take them from the last data frame's
// Epoch and Snapshot.Gen / Delta.Gen) — the server catches the stream up
// with a delta when it still retains exactly that state, else with a full
// snapshot, then pushes every subsequent publish. The stream is independent
// of the client's request/reply connection.
func (c *Client) Subscribe(doc string, lastEpoch, lastGen uint64) (*Stream, error) {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	req := wire.MarshalRequest(&wire.Request{Kind: wire.KindSubscribe, Doc: doc, LastEpoch: lastEpoch, LastGen: lastGen})
	if err := writeMsg(conn, req); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: subscribe: %w", err)
	}
	return &Stream{conn: conn, in: msgReader{r: bufio.NewReader(conn)}}, nil
}

// Next blocks until the server pushes the next frame and returns it
// decoded. It returns an error when the connection drops (server restart,
// slow-consumer eviction) — reconnect with Subscribe and the last applied
// epoch — and a *wire.RemoteError when the server refused the subscribe.
func (st *Stream) Next() (*wire.Frame, error) {
	f, _, err := st.NextRaw()
	return f, err
}

// NextRaw is Next exposing the frame's exact wire bytes alongside the
// decoded form. A relay retains and re-serves those bytes so its whole
// subtree sees the origin's marshal. The returned slice is owned by the
// caller.
func (st *Stream) NextRaw() (*wire.Frame, []byte, error) {
	payload, err := st.in.next()
	if err != nil {
		return nil, nil, fmt.Errorf("transport: stream: %w", err)
	}
	st.bytesRead.Add(int64(len(payload)) + 4)
	if payload[0] != wire.VersionStream {
		// Not a frame: the server's answer to the subscribe itself.
		_, err := wire.UnmarshalReply(wire.KindSubscribe, payload)
		return nil, nil, err
	}
	f, err := wire.UnmarshalFrame(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("transport: decoding stream frame: %w", err)
	}
	return f, payload, nil
}

// SetReadDeadline bounds the next Next call (e.g. heartbeat interval ×2 for
// liveness detection).
func (st *Stream) SetReadDeadline(t time.Time) error { return st.conn.SetReadDeadline(t) }

// BytesRead reports the total stream bytes consumed (frames + length
// prefixes) — the measured cost of push dissemination.
func (st *Stream) BytesRead() int64 { return st.bytesRead.Load() }

// Close terminates the stream.
func (st *Stream) Close() error { return st.conn.Close() }
