// Package codec holds the hardened binary-decode primitives shared by the
// repo's hand-rolled formats (the durable state v2 blobs and segments in
// internal/pubsub, the WAL records and snapshot manifests in internal/store,
// the stream frames and RPC messages in internal/wire).
//
// Every format built on it gets the same discipline for free:
//
//   - fixed-width big-endian integers and u32-length-prefixed strings/bytes;
//   - every length and count field clamped BEFORE it drives an allocation;
//   - an optional allocation Budget, shared across readers, charging decoded
//     structures whose retained size is not naturally bounded by the input
//     length (header material, count-sized slices) — so a crafted few-byte
//     field can never amplify into gigabytes of live memory, even when many
//     segments of one state are decoded concurrently.
//
// Readers never retain views into the input: Str/Bytes copy, and Take hands
// out a subslice explicitly documented as borrowed. Errors are two sentinels
// (ErrTruncated, ErrOversize) the owning packages wrap into their own
// corruption errors.
package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
)

// Errors returned by Reader. Formats wrap them (errors.Is-transparent) into
// their own corruption sentinels.
var (
	// ErrTruncated means the input ended inside a field — with an outer
	// integrity layer (CRC, AEAD) intact this is a format bug or version
	// skew, without one it may be a torn write.
	ErrTruncated = errors.New("codec: truncated input")
	// ErrOversize means a length or count field exceeds the caller's limit,
	// or a Budget charge failed.
	ErrOversize = errors.New("codec: length field exceeds limits")
)

// Budget is a shared allocation allowance, safe for concurrent Charge calls
// (parallel segment decodes draw on one budget). A nil *Budget is unlimited.
type Budget struct {
	n atomic.Int64
}

// NewBudget returns a budget allowing n bytes of charged allocations.
func NewBudget(n int64) *Budget {
	b := &Budget{}
	b.n.Store(n)
	return b
}

// Charge consumes n bytes of the budget, failing with ErrOversize when the
// allowance is exhausted. Charging a nil budget always succeeds.
func (b *Budget) Charge(n int) error {
	if b == nil {
		return nil
	}
	if n < 0 {
		return ErrOversize
	}
	if b.n.Add(-int64(n)) < 0 {
		return ErrOversize
	}
	return nil
}

// Reader decodes one big-endian, length-prefixed buffer.
type Reader struct {
	data   []byte
	off    int
	budget *Budget
}

// NewReader wraps data (not copied; the caller must not mutate it while
// decoding). budget may be nil for unlimited.
func NewReader(data []byte, budget *Budget) *Reader {
	return &Reader{data: data, budget: budget}
}

// Charge draws n bytes from the reader's budget (no-op without one).
func (r *Reader) Charge(n int) error { return r.budget.Charge(n) }

// Budget returns the reader's budget (nil if unlimited).
func (r *Reader) Budget() *Budget { return r.budget }

// Remaining returns the number of undecoded bytes.
func (r *Reader) Remaining() int { return len(r.data) - r.off }

// U8 reads one byte.
func (r *Reader) U8() (byte, error) {
	if r.off+1 > len(r.data) {
		return 0, ErrTruncated
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

// U32 reads a raw big-endian uint32 (no clamping — for non-length fields;
// lengths and counts go through Len).
func (r *Reader) U32() (uint32, error) {
	if r.off+4 > len(r.data) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(r.data[r.off:])
	r.off += 4
	return v, nil
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() (uint64, error) {
	if r.off+8 > len(r.data) {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

// Len reads a u32 length/count field clamped to max (ErrOversize beyond it).
func (r *Reader) Len(max int) (int, error) {
	v, err := r.U32()
	if err != nil {
		return 0, err
	}
	if int64(v) > int64(max) {
		return 0, ErrOversize
	}
	return int(v), nil
}

// Str reads a u32-length-prefixed string of at most max bytes.
func (r *Reader) Str(max int) (string, error) {
	n, err := r.Len(max)
	if err != nil {
		return "", err
	}
	if r.off+n > len(r.data) {
		return "", ErrTruncated
	}
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s, nil
}

// Bytes reads a u32-length-prefixed byte field of at most max bytes,
// returning a copy.
func (r *Reader) Bytes(max int) ([]byte, error) {
	n, err := r.Len(max)
	if err != nil {
		return nil, err
	}
	if r.off+n > len(r.data) {
		return nil, ErrTruncated
	}
	out := append([]byte(nil), r.data[r.off:r.off+n]...)
	r.off += n
	return out, nil
}

// Take returns the next n bytes as a subslice of the input (BORROWED — the
// caller copies anything it retains).
func (r *Reader) Take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) {
		return nil, ErrTruncated
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out, nil
}

// ReadU32s fills dst with len(dst) big-endian 32-bit values — one fixed-width
// column, one bounds check. The caller sized dst from counts it has already
// clamped; a column running past the input is ErrTruncated.
func ReadU32s[T ~uint32 | ~int32](r *Reader, dst []T) error {
	src, err := r.Take(4 * len(dst))
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = T(binary.BigEndian.Uint32(src[4*i:]))
	}
	return nil
}

// ReadU64s is ReadU32s for 64-bit columns.
func ReadU64s[T ~uint64](r *Reader, dst []T) error {
	src, err := r.Take(8 * len(dst))
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = T(binary.BigEndian.Uint64(src[8*i:]))
	}
	return nil
}

// Done fails if undecoded bytes remain.
func (r *Reader) Done() error {
	if n := len(r.data) - r.off; n != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrOversize, n)
	}
	return nil
}

// Writer builds one big-endian, length-prefixed buffer. The zero value is
// ready to use.
type Writer struct {
	buf bytes.Buffer
}

// U8 appends one byte.
func (w *Writer) U8(v byte) { w.buf.WriteByte(v) }

// U32 appends a big-endian uint32.
func (w *Writer) U32(v int) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	w.buf.Write(b[:])
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}

// Bytes appends a u32-length-prefixed byte field.
func (w *Writer) Bytes(p []byte) { w.U32(len(p)); w.buf.Write(p) }

// Str appends a u32-length-prefixed string.
func (w *Writer) Str(s string) { w.U32(len(s)); w.buf.WriteString(s) }

// Raw appends bytes verbatim (magic prefixes, fixed-width digests).
func (w *Writer) Raw(p []byte) { w.buf.Write(p) }

// RawStr appends a string's bytes verbatim (one entry of a name blob whose
// lengths travel in their own column).
func (w *Writer) RawStr(s string) { w.buf.WriteString(s) }

// WriteU32s appends a fixed-width column of big-endian 32-bit values.
func WriteU32s[T ~uint32 | ~int32](w *Writer, src []T) {
	w.buf.Grow(4 * len(src))
	b := w.buf.AvailableBuffer()
	for _, v := range src {
		b = binary.BigEndian.AppendUint32(b, uint32(v))
	}
	w.buf.Write(b)
}

// WriteU64s is WriteU32s for 64-bit columns.
func WriteU64s[T ~uint64](w *Writer, src []T) {
	w.buf.Grow(8 * len(src))
	b := w.buf.AvailableBuffer()
	for _, v := range src {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	w.buf.Write(b)
}

// Grow reserves room for n more bytes, for callers that know their size.
func (w *Writer) Grow(n int) { w.buf.Grow(n) }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return w.buf.Len() }

// Cap returns the capacity of the writer's buffer.
func (w *Writer) Cap() int { return w.buf.Cap() }

// Reset empties the writer and keeps its buffer, for a writer that is reused:
// whatever Out returned before is overwritten by the next writes.
func (w *Writer) Reset() { w.buf.Reset() }

// Out returns the accumulated buffer (owned by the writer until discarded).
func (w *Writer) Out() []byte { return w.buf.Bytes() }
