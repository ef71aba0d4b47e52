package experiments

import (
	"sync"
	"testing"

	"ppcd/internal/g2"
	"ppcd/internal/pedersen"
)

func TestGKMWorkloadShape(t *testing.T) {
	rows, err := GKMWorkload(10, 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if len(r) != 3 {
			t.Fatalf("row length = %d", len(r))
		}
	}
	if _, err := GKMWorkload(0, 1, 1); err == nil {
		t.Error("zero subs accepted")
	}
	if _, err := GKMWorkload(1, 1, 0); err == nil {
		t.Error("zero conds accepted")
	}
}

func TestMeasureGKMSound(t *testing.T) {
	// MeasureGKM verifies soundness internally (derived key == built key);
	// a non-error return means the invariant held on every derivation.
	res, err := MeasureGKM(20, 25, 5, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.ACVGen <= 0 || res.KeyDerive <= 0 {
		t.Error("non-positive timings")
	}
	if res.HeaderSize != 8*26+16*25 || res.ShippedSize != 8*26+4+40 {
		t.Errorf("header size = %d as built, %d as shipped", res.HeaderSize, res.ShippedSize)
	}
}

func TestFigPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation is slow in -short mode")
	}
	r, err := Fig3to5Point(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r.Subs != 50 || r.N != 100 {
		t.Errorf("point = %+v", r)
	}
	r6, err := Fig6Point(2)
	if err != nil {
		t.Fatal(err)
	}
	if r6.CondsPer != 2 || r6.N != 500 {
		t.Errorf("fig6 point = %+v", r6)
	}
}

var (
	ocbeOnce   sync.Once
	ocbeParams *pedersen.Params
)

func jacobianParams(t *testing.T) *pedersen.Params {
	t.Helper()
	ocbeOnce.Do(func() {
		p, err := pedersen.Setup(g2.MustPaperCurve(), []byte("exp-test"))
		if err != nil {
			panic(err)
		}
		ocbeParams = p
	})
	return ocbeParams
}

func TestMeasureOCBE(t *testing.T) {
	p := jacobianParams(t)
	eq, err := MeasureOCBE(p, false, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if eq.Compose <= 0 || eq.Open <= 0 {
		t.Error("EQ timings non-positive")
	}
	ge, err := MeasureOCBE(p, true, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ge.CreateCommit <= 0 || ge.Compose <= 0 || ge.Open <= 0 {
		t.Error("GE timings non-positive")
	}
	// GE does strictly more work than EQ at the publisher.
	if ge.Compose < eq.Compose {
		t.Error("GE compose faster than EQ compose (unexpected shape)")
	}
}

func TestAblationAllSchemesSucceed(t *testing.T) {
	res, err := Ablation(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d schemes", len(res))
	}
	byName := map[string]AblationResult{}
	for _, r := range res {
		byName[r.Scheme] = r
	}
	if byName["direct"].UnicastMsgs != 32 {
		t.Errorf("direct unicast = %d, want 32 (O(n))", byName["direct"].UnicastMsgs)
	}
	if byName["acv"].UnicastMsgs != 0 || byName["marker"].UnicastMsgs != 0 {
		t.Error("broadcast schemes should need no unicast")
	}
	if byName["acv"].BroadcastSize == 0 || byName["marker"].BroadcastSize == 0 {
		t.Error("broadcast schemes have zero size")
	}
}

func TestKernelFieldComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	fast, slow, err := KernelFieldComparison(60)
	if err != nil {
		t.Fatal(err)
	}
	if fast <= 0 || slow <= 0 {
		t.Error("non-positive timings")
	}
}
