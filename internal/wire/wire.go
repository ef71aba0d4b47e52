// Package wire owns every byte layout the system sends over a network: the
// stream frames of the dissemination phase (stream.go) and the messages of
// the RPC between a subscriber and a publisher or relay — the registration
// batch and its reply, the server's info, fetch and subscribe (rpc.go).
// internal/transport moves these bytes and frames them; it lays out none of
// them. Each encoding is deterministic and has one decoder.
//
// All integers are big-endian. Strings and byte fields are length-prefixed
// with uint32. Decoding is hardened: every count, length and reference is
// clamped before use, decoded allocations are charged against a 64 MiB
// per-message budget, and field elements must arrive reduced.
package wire

import (
	"errors"
	"fmt"

	"ppcd/internal/codec"
	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
)

// Version is the format version byte that opens a registration batch and
// its reply.
const Version = 1

// Errors returned by the decoders.
var (
	ErrTruncated  = errors.New("wire: truncated message")
	ErrBadVersion = errors.New("wire: unsupported format version")
	ErrOversize   = errors.New("wire: length field exceeds limits")
)

// maxField caps individual length fields to keep a corrupt length byte from
// driving huge allocations.
const maxField = 1 << 28 // 256 MiB

// maxGroupShards clamps the shard count of one grouped header; far above any
// real grouping (it exceeds the registration batch cap) but small enough
// that a crafted count cannot drive the decode loop.
const maxGroupShards = 1 << 16

// maxHeaderBudget bounds the cumulative decoded size of all headers in one
// message — the transport's 64 MiB bound on the message itself.
const maxHeaderBudget = 64 << 20

// writer and reader delegate to the shared codec primitives. The wrappers
// keep wire's method signatures, translate codec's sentinels into wire's,
// and preserve the exact byte formats — the round-trip tests pin them.

// writer encodes one message. runs is the nonce-run table of the stream
// frame being written (marshalFrame in stream.go); RPC messages have none.
type writer struct {
	w    codec.Writer
	runs *runTable
}

func (w *writer) u8(v byte)      { w.w.U8(v) }
func (w *writer) u32(v uint32)   { w.w.U32(int(v)) }
func (w *writer) u64(v uint64)   { w.w.U64(v) }
func (w *writer) bytes(p []byte) { w.w.Bytes(p) }
func (w *writer) str(s string)   { w.w.Str(s) }
func (w *writer) out() []byte    { return w.w.Out() }

// vec writes a count-prefixed vector of field elements (a header's X).
func (w *writer) vec(x linalg.Vector) {
	w.u32(uint32(len(x)))
	for _, e := range x {
		w.u64(uint64(e))
	}
}

// reader decodes one message. runs and check are the stream-frame run
// table: the runs as decoded, and the table re-collected from the decoded
// headers to hold the frame to its canonical form (stream.go).
type reader struct {
	r     *codec.Reader
	runs  []frameRun
	check runTable
}

func newReader(data []byte) *reader {
	// The codec budget carries the cumulative header allowance
	// (maxHeaderBudget per message).
	return &reader{r: codec.NewReader(data, codec.NewBudget(maxHeaderBudget))}
}

// wireErr maps the codec sentinels onto wire's, keeping the package's
// documented error contract (errors.Is against wire.ErrTruncated /
// wire.ErrOversize) independent of the backing primitives.
func wireErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, codec.ErrTruncated):
		return ErrTruncated
	case errors.Is(err, codec.ErrOversize):
		return ErrOversize
	}
	return err
}

// takeHeaderBudget charges n bytes of decoded header material against the
// message budget.
func (r *reader) takeHeaderBudget(n int) error {
	return wireErr(r.r.Charge(n))
}

func (r *reader) u8() (byte, error) {
	v, err := r.r.U8()
	return v, wireErr(err)
}

func (r *reader) u32() (uint32, error) {
	v, err := r.r.U32()
	return v, wireErr(err)
}

func (r *reader) u64() (uint64, error) {
	v, err := r.r.U64()
	return v, wireErr(err)
}

func (r *reader) bytes() ([]byte, error) {
	b, err := r.r.Bytes(maxField)
	return b, wireErr(err)
}

func (r *reader) str() (string, error) {
	s, err := r.r.Str(maxField)
	return s, wireErr(err)
}

// count reads a u32 count or index clamped to max.
func (r *reader) count(max int) (int, error) {
	n, err := r.r.Len(max)
	return n, wireErr(err)
}

func (r *reader) done() error {
	if n := r.r.Remaining(); n != 0 {
		return fmt.Errorf("wire: %d trailing bytes", n)
	}
	return nil
}

// readX decodes a header's X: count clamped — to the entries the remaining
// input can hold, before it sizes the vector — and every element reduced.
func readX(r *reader) (linalg.Vector, error) {
	nx, err := r.count(min(maxField, r.r.Remaining()) / 8)
	if err != nil {
		return nil, err
	}
	x := make(linalg.Vector, nx)
	for i := range x {
		raw, err := r.u64()
		if err != nil {
			return nil, err
		}
		if raw >= ff64.Modulus {
			return nil, fmt.Errorf("wire: X[%d] not a reduced field element", i)
		}
		x[i] = ff64.Elem(raw)
	}
	return x, nil
}

// presize clamps an element count the input has not backed yet to the
// entries of at least minSize bytes the rest of the input can hold, for use
// as a preallocation capacity: a hostile count costs what its bytes weigh,
// and append grows the slice past it as real entries arrive.
func (r *reader) presize(n uint32, minSize int) int {
	return min(int(n), r.r.Remaining()/minSize)
}
