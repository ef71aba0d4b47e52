// Repository-level benchmarks: one testing.B benchmark per table and figure
// of the paper's evaluation (§VII), plus ablation benches for the design
// choices called out in DESIGN.md. `go test -bench=. -benchmem` runs reduced
// parameter sweeps; `cmd/ppcd-bench` prints the full paper-style series.
package ppcd

import (
	"fmt"
	"math/big"
	benchrand "math/rand"
	"sync"
	"testing"

	"ppcd/internal/baseline/direct"
	"ppcd/internal/baseline/lkh"
	"ppcd/internal/baseline/marker"
	"ppcd/internal/benchutil"
	"ppcd/internal/core"
	"ppcd/internal/experiments"
	"ppcd/internal/ff64"
	"ppcd/internal/idtoken"
	"ppcd/internal/linalg"
	"ppcd/internal/ocbe"
	"ppcd/internal/pubsub"
)

var (
	benchOnce     sync.Once
	benchJacobian *CommitmentParams
)

func benchParams(b *testing.B) *CommitmentParams {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchJacobian, err = Setup(PaperCurve(), []byte("bench"))
		if err != nil {
			panic(err)
		}
	})
	return benchJacobian
}

// --- Figure 2: GE-OCBE step times vs ℓ (paper: 5…40; reduced sweep here) ---

func BenchmarkFig2_GEOCBE(b *testing.B) {
	jac := benchParams(b)
	for _, ell := range []int{5, 10, 20} {
		b.Run(fmt.Sprintf("ell=%d", ell), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.MeasureOCBE(jac, true, ell, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table II: EQ-OCBE step times over the paper's Jacobian group ---

func BenchmarkTable2_EQOCBE_Compose(b *testing.B) {
	jac := benchParams(b)
	x := big.NewInt(28)
	_, r, err := jac.CommitRandom(x)
	if err != nil {
		b.Fatal(err)
	}
	recv := ocbe.NewReceiver(jac, x, r)
	pred := ocbe.Predicate{Op: ocbe.EQ, X0: x}
	_, req, err := recv.Prepare(pred, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ocbe.Compose(jac, pred, 0, req, []byte("css")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_EQOCBE_Open(b *testing.B) {
	jac := benchParams(b)
	x := big.NewInt(28)
	_, r, err := jac.CommitRandom(x)
	if err != nil {
		b.Fatal(err)
	}
	recv := ocbe.NewReceiver(jac, x, r)
	pred := ocbe.Predicate{Op: ocbe.EQ, X0: x}
	wit, req, err := recv.Prepare(pred, 0)
	if err != nil {
		b.Fatal(err)
	}
	env, err := ocbe.Compose(jac, pred, 0, req, []byte("css"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recv.Open(env, wit); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 3-5: ACV generation, key derivation, header size vs N ---

func benchRows(b *testing.B, subs, conds int) [][]core.CSS {
	b.Helper()
	rows, err := experiments.GKMWorkload(subs, 25, conds)
	if err != nil {
		b.Fatal(err)
	}
	return rows
}

func BenchmarkFig3_ACVGen(b *testing.B) {
	for _, n := range []int{100, 250, 500} {
		for _, fill := range []int{25, 100} {
			subs := n * fill / 100
			rows := benchRows(b, subs, 2)
			b.Run(fmt.Sprintf("N=%d/fill=%d%%", n, fill), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := core.Build(rows, n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkFig4_KeyDerive(b *testing.B) {
	for _, n := range []int{100, 500, 1000} {
		rows := benchRows(b, n/4, 2)
		hdr, key, err := core.Build(rows, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k, err := core.DeriveKey(rows[i%len(rows)], hdr)
				if err != nil || k != key {
					b.Fatalf("derive failed: %v", err)
				}
			}
		})
	}
}

func BenchmarkFig5_HeaderSize(b *testing.B) {
	// Size is deterministic; this bench reports it as a custom metric so the
	// series appears in benchmark output.
	for _, n := range []int{100, 500, 1000} {
		rows := benchRows(b, n/4, 2)
		hdr, _, err := core.Build(rows, n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = hdr.Size()
			}
			b.ReportMetric(float64(hdr.Size())/1024, "KB/header")
			b.ReportMetric(float64(hdr.WireSize())/1024, "KB/shipped")
		})
	}
}

// --- Figure 6: vs conditions per policy (N = 500 fixed) ---

func BenchmarkFig6_ACVGenVsConds(b *testing.B) {
	for _, conds := range []int{1, 5, 10} {
		rows := benchRows(b, 500, conds)
		b.Run(fmt.Sprintf("conds=%d", conds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Build(rows, 500); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig6_KeyDeriveVsConds(b *testing.B) {
	for _, conds := range []int{1, 5, 10} {
		rows := benchRows(b, 500, conds)
		hdr, _, err := core.Build(rows, 500)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("conds=%d", conds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DeriveKey(rows[i%len(rows)], hdr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md): GKM scheme comparison and group choice ---

func BenchmarkAblation_GKMRekey(b *testing.B) {
	const n = 200
	rows := benchRows(b, n, 2)
	b.Run("acv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Build(rows, n); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("marker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := marker.Build(rows); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		d := direct.New()
		nyms := make([]string, n)
		for i := range nyms {
			nyms[i] = fmt.Sprintf("pn-%d", i)
			if err := d.RegisterUser(nyms[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := d.Rekey(nyms); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lkh", func(b *testing.B) {
		tree, err := lkh.New(n)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := tree.Join(fmt.Sprintf("pn-%d", i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			nym := fmt.Sprintf("pn-%d", i%n)
			if _, err := tree.Leave(nym); err != nil {
				b.Fatal(err)
			}
			if _, err := tree.Join(nym); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblation_GKMDerive(b *testing.B) {
	const n = 200
	rows := benchRows(b, n, 2)
	acvHdr, _, err := core.Build(rows, n)
	if err != nil {
		b.Fatal(err)
	}
	mHdr, _, err := marker.Build(rows)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("acv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.DeriveKey(rows[i%n], acvHdr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("marker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := marker.DeriveKey(rows[i%n], mHdr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_GroupChoiceEQOCBE times one EQ-OCBE round over the
// commitment group, the paper's genus-2 Jacobian.
func BenchmarkAblation_GroupChoiceEQOCBE(b *testing.B) {
	jac := benchParams(b)
	b.Run("jacobian", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.MeasureOCBE(jac, false, 0, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_GroupedBuild measures the §VIII-C scalability strategy:
// g groups of size N/g cost N³/g² solve work instead of N³, trading a
// slightly larger broadcast.
func BenchmarkAblation_GroupedBuild(b *testing.B) {
	const n = 1000
	rows := benchRows(b, n, 2)
	for _, groupSize := range []int{1000, 250, 100} {
		b.Run(fmt.Sprintf("groupSize=%d", groupSize), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.BuildGrouped(rows, groupSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_SharedSession measures the §VIII-D multi-document
// optimisation: amortising the matrix build over several documents and the
// KEV hashing over several derivations.
func BenchmarkAblation_SharedSession(b *testing.B) {
	const n, docs = 200, 10
	rows := benchRows(b, n, 2)
	b.Run("separate-builds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for d := 0; d < docs; d++ {
				if _, _, err := core.Build(rows, n); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("build-multi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.BuildMulti(rows, n, docs); err != nil {
				b.Fatal(err)
			}
		}
	})
	headers, _, err := core.BuildMulti(rows, n, docs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("derive-uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, hdr := range headers {
				if _, err := core.DeriveKey(rows[0], hdr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("derive-kev-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cache, err := core.NewKEVCache(rows[0], headers[0])
			if err != nil {
				b.Fatal(err)
			}
			for _, hdr := range headers {
				if _, err := cache.Derive(hdr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkAblation_KernelField(b *testing.B) {
	b.Run("ff64", func(b *testing.B) {
		rows := benchRows(b, 100, 2)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Build(rows, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- End-to-end: full publish/decrypt cycle through the public API ---

func BenchmarkEndToEndPublish(b *testing.B) {
	params := benchParams(b)
	idmgr, err := NewIdentityManager(params)
	if err != nil {
		b.Fatal(err)
	}
	acp, err := NewPolicy("adults", "age >= 18", "news", "body")
	if err != nil {
		b.Fatal(err)
	}
	pub, err := NewPublisher(params, idmgr.PublicKey(), []*Policy{acp}, Options{Ell: 8})
	if err != nil {
		b.Fatal(err)
	}
	sub, err := NewSubscriber("pn-bench")
	if err != nil {
		b.Fatal(err)
	}
	tok, sec, err := idmgr.IssueString("pn-bench", "age", "30")
	if err != nil {
		b.Fatal(err)
	}
	if err := sub.AddToken(tok, sec); err != nil {
		b.Fatal(err)
	}
	if _, err := sub.RegisterAll(pub); err != nil {
		b.Fatal(err)
	}
	doc, err := NewDocument("news", Subdocument{Name: "body", Content: make([]byte, 4096)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc, err := pub.Publish(doc)
		if err != nil {
			b.Fatal(err)
		}
		got, err := sub.Decrypt(bc)
		if err != nil || len(got) != 1 {
			b.Fatalf("decrypt failed: %v", err)
		}
	}
}

// --- Layered engine: steady-state vs. rebuild publish cost ---
//
// The rekey engine caches per-configuration ACVs keyed by membership
// versions: a publish with no table change since the previous one performs
// ZERO null-space solves (it only re-encrypts payloads), a single
// leave/join re-solves only the affected configurations, and a dropped cache
// rebuilds everything. These benchmarks quantify the three regimes.

// benchStatePublisher builds a publisher over a benchutil.Workload: the
// first half of the pseudonyms hold only attr0 (revoking one dirties
// exactly one configuration), the rest are fully registered. The rows are
// loaded through the replication-event path so no OCBE exchanges run.
// groupSize > 0 enables §VIII-C subscriber grouping.
func benchStatePublisher(b *testing.B, subs, policies, groupSize int) (*Publisher, *Document, []benchutil.Row) {
	b.Helper()
	params := benchParams(b)
	idmgr, err := NewIdentityManager(params)
	if err != nil {
		b.Fatal(err)
	}
	acps, doc, rows, err := benchutil.Workload(subs, policies, subs/2, 1024)
	if err != nil {
		b.Fatal(err)
	}
	pub, err := NewPublisher(params, idmgr.PublicKey(), acps, Options{Ell: 8, GroupSize: groupSize})
	if err != nil {
		b.Fatal(err)
	}
	if err := benchutil.Load(pub, rows); err != nil {
		b.Fatal(err)
	}
	return pub, doc, rows
}

// BenchmarkPublishSteadyState is a publish with no table change since the
// previous one: ungrouped at two table sizes, and grouped at churn-stream's
// table (25 000 rows, 2 policies, shards of 128: 294 shards), where every
// configuration is served from the cache over the solves the snapshot leased.
func BenchmarkPublishSteadyState(b *testing.B) {
	for _, c := range []struct {
		name                      string
		subs, policies, groupSize int
	}{
		{"subs=100", 100, 5, 0},
		{"subs=400", 400, 5, 0},
		{"grouped/subs=25000", 25000, 2, 128},
	} {
		b.Run(c.name, func(b *testing.B) {
			pub, doc, _ := benchStatePublisher(b, c.subs, c.policies, c.groupSize)
			if _, err := pub.Publish(doc); err != nil {
				b.Fatal(err)
			}
			solves := pub.Stats().Solves
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pub.Publish(doc); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if got := pub.Stats().Solves; got != solves {
				b.Fatalf("steady-state publishes performed %d solves", got-solves)
			}
		})
	}
}

func BenchmarkPublishSingleLeave(b *testing.B) {
	for _, subs := range []int{100, 400} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			pub, doc, rows := benchStatePublisher(b, subs, 5, 0)
			if _, err := pub.Publish(doc); err != nil {
				b.Fatal(err)
			}
			pool := subs / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%pool == 0 {
					b.StopTimer()
					if err := benchutil.Load(pub, rows); err != nil {
						b.Fatal(err)
					}
					if _, err := pub.Publish(doc); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := pub.RevokeSubscription(fmt.Sprintf("pn-%d", i%pool)); err != nil {
					b.Fatal(err)
				}
				if _, err := pub.Publish(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPublishFullRebuild(b *testing.B) {
	for _, subs := range []int{100, 400} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			pub, doc, rows := benchStatePublisher(b, subs, 5, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := benchutil.Load(pub, rows); err != nil {
					b.Fatal(err)
				}
				// Re-loading an identical table dirties nothing; the
				// explicit reset keeps this a genuine full re-solve every
				// iteration.
				pub.ResetRekeyCache()
				if _, err := pub.Publish(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Grouped engine (§VIII-C): full-rebuild and churn cost vs grouping g ---
//
// Sharding a policy's rows into g groups cuts a full rebuild from N³ to
// ~N³/g² solve work, and a single leave from one configuration solve to one
// shard solve of (N/g)³. These benchmarks measure both regimes across g;
// g=1 (GroupSize 0) is the ungrouped baseline. The group-size cap is
// ceil(subs/g), so the dominant full-subs policy (attr0) shards into
// exactly g groups and the half-registered ones into ~g/2.

func benchGroupSize(subs, g int) int {
	if g <= 1 {
		return 0
	}
	return (subs + g - 1) / g
}

func BenchmarkPublishGroupedFullRebuild(b *testing.B) {
	const subs = 256
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("groups=%d", g), func(b *testing.B) {
			pub, doc, rows := benchStatePublisher(b, subs, 5, benchGroupSize(subs, g))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := benchutil.Load(pub, rows); err != nil {
					b.Fatal(err)
				}
				pub.ResetRekeyCache()
				if _, err := pub.Publish(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPublishGroupedSingleLeave(b *testing.B) {
	const subs = 256
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("groups=%d", g), func(b *testing.B) {
			pub, doc, rows := benchStatePublisher(b, subs, 5, benchGroupSize(subs, g))
			if _, err := pub.Publish(doc); err != nil {
				b.Fatal(err)
			}
			pool := subs / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%pool == 0 {
					b.StopTimer()
					if err := benchutil.Load(pub, rows); err != nil {
						b.Fatal(err)
					}
					if _, err := pub.Publish(doc); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if err := pub.RevokeSubscription(fmt.Sprintf("pn-%d", i%pool)); err != nil {
					b.Fatal(err)
				}
				if _, err := pub.Publish(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Solve kernel: blocked elimination vs reference Gauss–Jordan ---
//
// The engine's null-space solves run on linalg's blocked panel elimination
// (echelon + per-sample back-substitution, delayed-reduction accumulators).
// These benchmarks race it against the reference RREF path on shard-shaped
// systems (n rows × n+1 columns, leading 1-column), the same shape
// core.solveShard and solveConfig assemble.

func benchShardSystem(b *testing.B, n int) *linalg.Matrix {
	b.Helper()
	rng := benchrand.New(benchrand.NewSource(int64(n)))
	m := linalg.NewMatrix(n, n+1)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		row[0] = ff64.One
		for j := 1; j <= n; j++ {
			row[j] = ff64.New(rng.Uint64())
		}
	}
	return m
}

func benchSolve(b *testing.B, n int, blocked bool) {
	src := benchShardSystem(b, n)
	work := linalg.NewMatrix(n, n+1)
	ws := linalg.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < n; r++ {
			copy(work.Row(r), src.Row(r))
		}
		var err error
		if blocked {
			_, err = work.RandomKernelVectorBlocked(ws)
		} else {
			_, err = work.RandomKernelVector()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveReference512(b *testing.B) { benchSolve(b, 512, false) }
func BenchmarkSolveBlocked512(b *testing.B)   { benchSolve(b, 512, true) }
func BenchmarkSolveReference128(b *testing.B) { benchSolve(b, 128, false) }
func BenchmarkSolveBlocked128(b *testing.B)   { benchSolve(b, 128, true) }

// --- Registration path (ISSUE 3): OCBE envelopes and batch registration ---

// BenchmarkOCBEEnvelope measures one envelope composition over the paper's
// Jacobian at the paper curve parameters — the per-condition unit of work of
// oblivious registration. Before the ff128 fast path (PR 3) the EQ compose
// was ~34 ms and a full GE round at ell=20 ~1.1 s on the same hardware.
func BenchmarkOCBEEnvelope(b *testing.B) {
	jac := benchParams(b)
	msg := make([]byte, 8)

	b.Run("eq-compose", func(b *testing.B) {
		x := big.NewInt(28)
		_, r, err := jac.CommitRandom(x)
		if err != nil {
			b.Fatal(err)
		}
		recv := ocbe.NewReceiver(jac, x, r)
		pred := ocbe.Predicate{Op: ocbe.EQ, X0: x}
		_, req, err := recv.Prepare(pred, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ocbe.Compose(jac, pred, 0, req, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ge-compose-ell=8", func(b *testing.B) {
		const ell = 8
		x := big.NewInt(37)
		_, r, err := jac.CommitRandom(x)
		if err != nil {
			b.Fatal(err)
		}
		recv := ocbe.NewReceiver(jac, x, r)
		pred := ocbe.Predicate{Op: ocbe.GE, X0: big.NewInt(10)}
		_, req, err := recv.Prepare(pred, ell)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ocbe.Compose(jac, pred, ell, req, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRegisterBatch measures end-to-end batched registration against a
// publisher on the paper curve: token verification, parallel envelope
// composition over the shared fixed-base tables, and the table-T commit.
func BenchmarkRegisterBatch(b *testing.B) {
	jac := benchParams(b)
	idmgr, err := NewIdentityManager(jac)
	if err != nil {
		b.Fatal(err)
	}
	acp, err := NewPolicy("bench-reg", "dept = eng && level >= 10", "doc", "body")
	if err != nil {
		b.Fatal(err)
	}
	const ell = 8
	pub, err := NewPublisher(jac, idmgr.PublicKey(), []*Policy{acp}, Options{Ell: ell})
	if err != nil {
		b.Fatal(err)
	}
	// One subscriber batch (2 conditions), rebuilt per iteration outside the
	// timer so each RegisterBatch sees fresh nyms.
	mkBatch := func(i int) []*pubsub.RegistrationRequest {
		nym := fmt.Sprintf("bench-pn-%d", i)
		var reqs []*pubsub.RegistrationRequest
		for _, cond := range acp.Conds {
			val := "eng"
			if cond.Op != ocbe.EQ {
				val = "37"
			}
			tok, sec, err := idmgr.IssueString(nym, cond.Attr, val)
			if err != nil {
				b.Fatal(err)
			}
			recv := ocbe.NewReceiver(jac, sec.Value, sec.Blinding)
			pred := ocbe.Predicate{Op: cond.Op, X0: idtoken.EncodeValue(jac.Order(), cond.Value)}
			_, req, err := recv.Prepare(pred, ell)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, &pubsub.RegistrationRequest{Token: tok, CondID: cond.ID(), OCBE: req})
		}
		return reqs
	}
	batches := make([][]*pubsub.RegistrationRequest, b.N)
	for i := range batches {
		batches[i] = mkBatch(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := pub.RegisterBatch(batches[i])
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != "" {
				b.Fatal(r.Err)
			}
		}
	}
}
