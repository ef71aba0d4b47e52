package codec

import (
	"errors"
	"sync"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U32(1234)
	w.U64(1 << 40)
	w.Str("hello")
	w.Bytes([]byte{1, 2, 3})
	w.Raw([]byte{9, 9})

	r := NewReader(w.Out(), nil)
	if v, err := r.U8(); err != nil || v != 7 {
		t.Fatalf("U8 = %d, %v", v, err)
	}
	if v, err := r.Len(1 << 20); err != nil || v != 1234 {
		t.Fatalf("Len = %d, %v", v, err)
	}
	if v, err := r.U64(); err != nil || v != 1<<40 {
		t.Fatalf("U64 = %d, %v", v, err)
	}
	if s, err := r.Str(16); err != nil || s != "hello" {
		t.Fatalf("Str = %q, %v", s, err)
	}
	if b, err := r.Bytes(16); err != nil || len(b) != 3 || b[0] != 1 {
		t.Fatalf("Bytes = %v, %v", b, err)
	}
	if b, err := r.Take(2); err != nil || b[0] != 9 || b[1] != 9 {
		t.Fatalf("Take = %v, %v", b, err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestTruncationAndOversize(t *testing.T) {
	var w Writer
	w.Str("abcdef")
	data := w.Out()

	r := NewReader(data[:3], nil)
	if _, err := r.Str(64); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated prefix: %v", err)
	}
	r = NewReader(data, nil)
	if _, err := r.Str(3); !errors.Is(err, ErrOversize) {
		t.Fatalf("over max: %v", err)
	}
	r = NewReader(data[:7], nil)
	if _, err := r.Str(64); !errors.Is(err, ErrTruncated) {
		t.Fatalf("body cut: %v", err)
	}
	r = NewReader(append(append([]byte(nil), data...), 0xff), nil)
	if _, err := r.Str(64); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

func TestBudgetShared(t *testing.T) {
	b := NewBudget(100)
	if err := b.Charge(60); err != nil {
		t.Fatal(err)
	}
	if err := b.Charge(60); !errors.Is(err, ErrOversize) {
		t.Fatalf("over budget: %v", err)
	}
	// nil budget is unlimited.
	var nb *Budget
	if err := nb.Charge(1 << 30); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetConcurrent(t *testing.T) {
	b := NewBudget(1000)
	var wg sync.WaitGroup
	errs := make([]error, 20)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Charge(100)
		}(i)
	}
	wg.Wait()
	ok := 0
	for _, err := range errs {
		if err == nil {
			ok++
		}
	}
	if ok != 10 {
		t.Fatalf("%d charges of 100 passed against a budget of 1000", ok)
	}
}

func TestColumns(t *testing.T) {
	var w Writer
	WriteU32s(&w, []int32{-1, 0, 7})
	WriteU64s(&w, []uint64{1 << 60, 3})
	w.RawStr("ab")

	r := NewReader(w.Out(), nil)
	gids := make([]int32, 3)
	if err := ReadU32s(r, gids); err != nil || gids[0] != -1 || gids[2] != 7 {
		t.Fatalf("ReadU32s = %v, %v", gids, err)
	}
	cells := make([]uint64, 2)
	if err := ReadU64s(r, cells); err != nil || cells[0] != 1<<60 || cells[1] != 3 {
		t.Fatalf("ReadU64s = %v, %v", cells, err)
	}
	// A column longer than the input is truncation, and consumes nothing.
	if err := ReadU32s(r, make([]uint32, 1)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short column: %v", err)
	}
	if b, err := r.Take(2); err != nil || string(b) != "ab" {
		t.Fatalf("Take = %q, %v", b, err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}
