package core

import (
	"bytes"
	"slices"
	"testing"

	"ppcd/internal/ff64"
)

func engRows(base, count, conds int) [][]CSS {
	rows := make([][]CSS, count)
	for i := range rows {
		row := make([]CSS, conds)
		for j := range row {
			row[j] = ff64.New(uint64(base + i*conds + j + 1))
		}
		rows[i] = row
	}
	return rows
}

func TestEngineRekeyAndDerive(t *testing.T) {
	e := NewEngine(2)
	gA := RowGroup{ID: "acpA", Rows: engRows(0, 3, 2)}
	gB := RowGroup{ID: "acpB", Rows: engRows(100, 2, 2)}
	specs := []ConfigSpec{
		{ID: "A", Sig: "a@1", Groups: []RowGroup{gA}},
		{ID: "A|B", Sig: "a@1|b@1", Groups: []RowGroup{gA, gB}},
	}
	out, err := e.RekeyAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d results", len(out))
	}
	for id, ck := range out {
		if !ck.Rebuilt {
			t.Errorf("%s: expected rebuild on first session", id)
		}
	}
	// Every member row derives the configuration key; an outside row does not.
	for _, row := range gA.Rows {
		for _, id := range []string{"A", "A|B"} {
			k, err := DeriveKey(row, out[id].Hdr)
			if err != nil {
				t.Fatal(err)
			}
			if k != out[id].Key {
				t.Errorf("config %s: member row derived wrong key", id)
			}
		}
	}
	for _, row := range gB.Rows {
		if k, _ := DeriveKey(row, out["A"].Hdr); k == out["A"].Key {
			t.Error("non-member row derived config A's key")
		}
	}
	// Shared session: both configurations were rebuilt over one nonce set,
	// named by one seed.
	if a, ab := out["A"].Hdr, out["A|B"].Hdr; !a.Seeded() || !bytes.Equal(a.Seed, ab.Seed) {
		t.Error("session nonces not shared across configurations")
	}
}

func TestEngineIncrementalCache(t *testing.T) {
	e := NewEngine(0)
	g := RowGroup{ID: "acpA", Rows: engRows(0, 3, 1)}
	spec := ConfigSpec{ID: "A", Sig: "a@1", Groups: []RowGroup{g}}

	first, err := e.RekeyAll([]ConfigSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	solvesAfterFirst := e.Stats().Solves

	// Same signature → cache hit, zero additional solves, identical header.
	second, err := e.RekeyAll([]ConfigSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Solves; got != solvesAfterFirst {
		t.Errorf("steady-state rekey solved %d systems", got-solvesAfterFirst)
	}
	if second["A"].Rebuilt {
		t.Error("steady-state rekey reported a rebuild")
	}
	if second["A"].Hdr != first["A"].Hdr || second["A"].Key != first["A"].Key {
		t.Error("cache hit did not reuse header and key")
	}
	if e.Stats().CacheHits == 0 {
		t.Error("cache hit not counted")
	}

	// Changed signature → rebuild with a fresh key.
	spec.Sig = "a@2"
	third, err := e.RekeyAll([]ConfigSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if !third["A"].Rebuilt {
		t.Error("membership change did not rebuild")
	}
	if third["A"].Key == first["A"].Key {
		t.Error("rebuild reused the old key")
	}

	// Forget forces a rebuild even with an unchanged signature.
	e.Forget("A")
	fourth, err := e.RekeyAll([]ConfigSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if !fourth["A"].Rebuilt {
		t.Error("Forget did not force a rebuild")
	}
}

func TestEngineRejectsEmptyConfig(t *testing.T) {
	e := NewEngine(0)
	_, err := e.RekeyAll([]ConfigSpec{{ID: "A", Sig: "s", Groups: nil}})
	if err == nil {
		t.Fatal("zero-row configuration accepted")
	}
}

func TestEngineMinN(t *testing.T) {
	e := NewEngine(0)
	g := RowGroup{ID: "acpA", Rows: engRows(0, 2, 1)}
	out, err := e.RekeyAll([]ConfigSpec{{ID: "A", Sig: "s", Groups: []RowGroup{g}, MinN: 7}})
	if err != nil {
		t.Fatal(err)
	}
	if n := out["A"].Hdr.N(); n != 7 {
		t.Errorf("header N = %d, want 7", n)
	}
	if k, err := DeriveKey(g.Rows[0], out["A"].Hdr); err != nil || k != out["A"].Key {
		t.Errorf("derive under padded N failed: %v", err)
	}
}

// TestEngineRekeyPaperN is §V-C at the paper's N = 512 through the engine: one
// ungrouped configuration, whose elimination stripes over the pool's two
// workers and whose rows hash in several tasks. Every row derives K; after a
// revocation every remaining row derives the new K and the revoked row does
// not, and neither K opens to a random CSS.
func TestEngineRekeyPaperN(t *testing.T) {
	const n = 512
	rows := make([][]CSS, n)
	for i := range rows {
		c, err := NewCSS()
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = []CSS{c}
	}
	stranger, err := NewCSS()
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(2)
	rekey := func(sig string, rows [][]CSS) ConfigKeys {
		t.Helper()
		out, err := e.RekeyAll([]ConfigSpec{{ID: "P", Sig: sig, Groups: []RowGroup{{ID: "acp", Rows: rows}}, MinN: n}})
		if err != nil {
			t.Fatal(err)
		}
		ck := out["P"]
		if !ck.Rebuilt || ck.Hdr.N() != n {
			t.Fatalf("%s: rebuilt %v at N = %d, want a rebuild at %d", sig, ck.Rebuilt, ck.Hdr.N(), n)
		}
		for i, row := range rows {
			if k, err := DeriveKey(row, ck.Hdr); err != nil || k != ck.Key {
				t.Fatalf("%s: row %d does not derive K (%v)", sig, i, err)
			}
		}
		if k, _ := DeriveKey([]CSS{stranger}, ck.Hdr); k == ck.Key {
			t.Fatalf("%s: a random CSS derives K", sig)
		}
		return ck
	}
	rekey("full", rows)
	const revoked = 7
	rest := append(slices.Clone(rows[:revoked]), rows[revoked+1:]...)
	after := rekey("revoked", rest)
	if k, _ := DeriveKey(rows[revoked], after.Hdr); k == after.Key {
		t.Fatal("the revoked row derives the key published after its revocation")
	}
}
