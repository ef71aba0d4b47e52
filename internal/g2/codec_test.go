package g2

import (
	"bytes"
	"math/big"
	"testing"

	"ppcd/internal/core/coretest"
)

// nonCanonical returns enc with its i-th coefficient replaced by the same
// residue plus q. The sum still fits the 11-byte slot, so only the q bound
// tells the two encodings apart.
func nonCanonical(t *testing.T, c *Curve, enc []byte, i int) []byte {
	t.Helper()
	n := c.elemLen()
	slot := enc[1+i*n : 1+(i+1)*n]
	x := new(big.Int).SetBytes(slot)
	x.Add(x, c.Modulus())
	if x.BitLen() > 8*n {
		t.Fatalf("coefficient %d plus q does not fit %d bytes", i, n)
	}
	out := bytes.Clone(enc)
	x.FillBytes(out[1+i*n : 1+(i+1)*n])
	return out
}

// TestUnmarshalRefusesUnreducedCoefficients holds every element to one
// encoding: a coefficient c + q names the same residue as c, and the field
// conversion would reduce it silently, so Unmarshal must refuse it first.
func TestUnmarshalRefusesUnreducedCoefficients(t *testing.T) {
	c := testCurve
	hashed, err := c.HashToElement([]byte("codec/degree-1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*Divisor{hashed, c.Op(c.Generator(), hashed)} {
		enc := c.Marshal(e)
		if enc[0] == 0 {
			t.Fatal("expected a degree-1 and a degree-2 element")
		}
		for i := 0; i < 2*int(enc[0]); i++ {
			bad := nonCanonical(t, c, enc, i)
			if _, err := c.Unmarshal(bad); err == nil {
				t.Errorf("degree %d, coefficient %d: the encoding with c + q was accepted", enc[0], i)
			}
			if _, err := paperRef.Unmarshal(bad); err == nil {
				t.Errorf("degree %d, coefficient %d: the reference accepted c + q", enc[0], i)
			}
		}
	}
}

// unmarshalAllocPerByte and unmarshalAllocFixed bound what Unmarshal
// allocates: a big.Int for each 11-byte coefficient and the divisor, or an
// error — a few hundred bytes; an input longer than the 45 bytes of a
// degree-2 divisor is refused by its length before anything is read. The
// counter is the process's, so the fixed term also covers what the fuzzing
// engine allocates beside the call (up to ≈ 5 kB seen).
const unmarshalAllocPerByte, unmarshalAllocFixed = 8, 16 << 10

// FuzzUnmarshal feeds hostile encodings to Unmarshal: it must never panic,
// it allocates no more than unmarshalAllocPerByte per input byte plus
// unmarshalAllocFixed, an accepted input must re-marshal to the same bytes,
// and it must accept exactly what the big-integer reference accepts.
func FuzzUnmarshal(f *testing.F) {
	c := testCurve
	n := c.elemLen()
	gen := c.Marshal(c.Generator())
	hashed, err := c.HashToElement([]byte("codec/fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	deg1 := c.Marshal(hashed)
	q := c.Modulus().FillBytes(make([]byte, n))
	ff := bytes.Repeat([]byte{0xff}, n)
	offCurve := bytes.Clone(gen)
	offCurve[len(offCurve)-1] ^= 1
	for _, seed := range [][]byte{
		{0},
		deg1,
		gen,
		c.Marshal(c.Op(c.Generator(), hashed)),
		append([]byte{1}, append(q, deg1[1+n:]...)...),  // u0 = q
		append(append([]byte{1}, deg1[1:1+n]...), q...), // v0 = q
		append(append([]byte{2}, ff...), gen[1+n:]...),  // u0 = 11 bytes of 0xff
		append([]byte{3}, bytes.Repeat([]byte{0}, 6*n)...),
		{3},
		gen[:len(gen)-1],
		deg1[:1+n],
		{},
		offCurve,
		{0, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e *Divisor
		var err error
		coretest.AllocWithin(t, "divisor", data, unmarshalAllocPerByte, unmarshalAllocFixed, func() { e, err = c.Unmarshal(data) })
		_, refErr := paperRef.Unmarshal(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Unmarshal(%x): err %v, reference err %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		if !c.IsValid(e) {
			t.Fatalf("Unmarshal(%x) accepted an invalid divisor", data)
		}
		if got := c.Marshal(e); !bytes.Equal(got, data) {
			t.Fatalf("Unmarshal(%x) re-marshals as %x", data, got)
		}
	})
}
