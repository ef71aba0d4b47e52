// Command ppcd-bench regenerates every table and figure of the paper's
// evaluation section (§VII) plus the DESIGN.md ablations, printing the same
// rows/series the paper reports.
//
// Usage:
//
//	ppcd-bench -all                 # everything (slow: full sweeps)
//	ppcd-bench -fig 2 [-rounds 3]   # GE-OCBE step times vs ℓ
//	ppcd-bench -table 2             # EQ-OCBE step times
//	ppcd-bench -fig 3|4|5           # ACV gen / key derive / ACV size vs N
//	ppcd-bench -fig 6               # vs conditions per policy
//	ppcd-bench -ablation            # ACV vs marker vs direct vs LKH
//	ppcd-bench -quick               # reduced sweeps for smoke testing
//	ppcd-bench -publish -subs 400   # steady-state vs churn publish timings (JSON)
//	ppcd-bench -publish -groups 4   # same, sharded into 4 groups/policy (§VIII-C)
//	ppcd-bench -publish -stream     # plus a TCP streaming smoke: delta vs snapshot bytes on the wire
//	ppcd-bench -register -subs 50 -conds 4   # oblivious registration timings (JSON)
//	ppcd-bench -scale -subs 1000000 -policies 2   # million-row regime: build, solve storm, churn replay (JSON)
//	ppcd-bench -fanout -fanout-conns 100,1000 -relays 1   # relay tier: K downstream streams, origin egress flatness (JSON)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"ppcd"
	"ppcd/internal/benchutil"
	"ppcd/internal/experiments"
	"ppcd/internal/g2"
	"ppcd/internal/idtoken"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ppcd-bench: ")

	var (
		fig       = flag.Int("fig", 0, "figure to regenerate (2-6)")
		table     = flag.Int("table", 0, "table to regenerate (2)")
		all       = flag.Bool("all", false, "regenerate everything")
		ablation  = flag.Bool("ablation", false, "run GKM ablation comparison")
		rounds    = flag.Int("rounds", 3, "OCBE protocol rounds per point (paper: 50)")
		quick     = flag.Bool("quick", false, "reduced parameter sweeps")
		publish   = flag.Bool("publish", false, "measure steady-state vs churn vs full-rebuild publish, emit JSON")
		stream    = flag.Bool("stream", false, "-publish: also run a TCP streaming smoke (publisher + 8 streaming subscribers under churn) and report per-subscriber bytes on wire")
		subs      = flag.Int("subs", 200, "-publish/-register: registered pseudonyms")
		policies  = flag.Int("policies", 5, "-publish: single-condition policies / configurations")
		pubRounds = flag.Int("publish-rounds", 10, "-publish: publishes measured per regime")
		groups    = flag.Int("groups", 1, "-publish: §VIII-C grouping degree of the largest policy (1 = ungrouped baseline; half-filled policies shard into ~groups/2 groups)")
		register  = flag.Bool("register", false, "measure the oblivious registration path (token verify, envelope compose, batch register), emit JSON")
		conds     = flag.Int("conds", 4, "-register: conditions per subscriber (alternating EQ and GE)")
		ell       = flag.Int("ell", 8, "-register: bit-length bound for inequality OCBE")
		recover   = flag.Bool("recover", false, "measure segmented durable-state behaviour: O(churn) snapshot bytes, pipelined WAL commit rate, cold/crash/warm recovery; emit JSON")
		rows      = flag.Int("rows", 0, "-recover: table rows (0 = use -subs)")
		churn     = flag.Int("churn", 8, "-recover: leavers revoked before the post-churn snapshot")
		scale     = flag.Bool("scale", false, "measure the million-row regime: columnar build, cold solve storm, open-loop churn replay, worker sweep; emit JSON (use -subs for rows)")
		fanout    = flag.Bool("fanout", false, "measure the relay fan-out tier: origin -> relay chain -> K streaming consumers under churn; emit JSON")
		fanConns  = flag.String("fanout-conns", "100,1000", "-fanout: comma-separated downstream connection counts to sweep")
		relays    = flag.Int("relays", 1, "-fanout: relays chained in series between origin and consumers")
		fanPubs   = flag.Int("fanout-publishes", 20, "-fanout: churn publishes per sweep point")
		shardSize = flag.Int("shard-size", 128, "-scale: §VIII-C group size (rows per shard)")
		churnPubs = flag.Int("churn-publishes", 40, "-scale: publishes in the churn replay")
		noSweep   = flag.Bool("no-sweep", false, "-scale: skip the worker sweep")
	)
	flag.Parse()

	if *fanout {
		if _, err := runFanoutBench(*fanConns, *relays, *fanPubs, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *scale {
		if _, err := runScaleBench(*subs, *policies, *shardSize, *churnPubs, !*noSweep, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *recover {
		n := *rows
		if n == 0 {
			n = *subs
		}
		if err := runRecoverBench(n, *policies, *shardSize, *churn); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *publish {
		if err := runPublishBench(*subs, *policies, *pubRounds, *groups, *stream); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *register {
		if err := runRegisterBench(*subs, *conds, *ell); err != nil {
			log.Fatal(err)
		}
		return
	}

	if !*all && *fig == 0 && *table == 0 && !*ablation {
		flag.Usage()
		os.Exit(2)
	}

	run := func(name string, f func() error) {
		fmt.Printf("\n=== %s ===\n", name)
		start := time.Now()
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("--- completed in %v ---\n", time.Since(start).Round(time.Millisecond))
	}

	if *all || *fig == 2 {
		run("Figure 2: GE-OCBE step times vs ell", func() error { return runFig2(*rounds, *quick) })
	}
	if *all || *table == 2 {
		run("Table II: EQ-OCBE step times", func() error { return runTable2(*rounds) })
	}
	if *all || *fig == 3 || *fig == 4 || *fig == 5 {
		run("Figures 3-5: ACV generation / key derivation / ACV size vs N", func() error { return runFig3to5(*quick) })
	}
	if *all || *fig == 6 {
		run("Figure 6: ACV generation and key derivation vs conditions per policy", func() error { return runFig6(*quick) })
	}
	if *all || *ablation {
		run("Ablation: ACV vs marker vs direct vs LKH", runAblation)
		run("Ablation: kernel field choice (ff64 vs big.Int)", runFieldAblation)
	}
}

func runFig2(rounds int, quick bool) error {
	g := g2.MustPaperCurve()
	params, err := pedersen.Setup(g, []byte("ppcd-bench"))
	if err != nil {
		return err
	}
	ells := []int{5, 10, 15, 20, 25, 30, 35, 40}
	if quick {
		ells = []int{5, 10, 20}
	}
	fmt.Printf("group=%s rounds=%d (paper: G2HEC jacobian, 50 rounds)\n", g.Name(), rounds)
	fmt.Printf("%4s  %28s  %22s  %20s\n", "ell", "CreateExtraCommitments(Sub)", "ComposeEnvelope(Pub)", "OpenEnvelope(Sub)")
	for _, ell := range ells {
		r, err := experiments.MeasureOCBE(params, true, ell, rounds)
		if err != nil {
			return err
		}
		fmt.Printf("%4d  %28s  %22s  %20s\n", ell,
			r.CreateCommit.Round(time.Microsecond),
			r.Compose.Round(time.Microsecond),
			r.Open.Round(time.Microsecond))
	}
	return nil
}

func runTable2(rounds int) error {
	g := g2.MustPaperCurve()
	params, err := pedersen.Setup(g, []byte("ppcd-bench"))
	if err != nil {
		return err
	}
	r, err := experiments.MeasureOCBE(params, false, 0, rounds)
	if err != nil {
		return err
	}
	fmt.Printf("group=%s rounds=%d (paper: 0.00 / 11.80 / 35.25 ms)\n", g.Name(), rounds)
	fmt.Printf("Create Extra Commitments (Sub): %v\n", r.CreateCommit.Round(time.Microsecond))
	fmt.Printf("Compose Envelope (Pub):         %v\n", r.Compose.Round(time.Microsecond))
	fmt.Printf("Open Envelope (Sub):            %v\n", r.Open.Round(time.Microsecond))
	return nil
}

func runFig3to5(quick bool) error {
	ns := []int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	fills := []int{25, 50, 75, 100}
	if quick {
		ns = []int{100, 300, 500}
	}
	fmt.Printf("workload: 25 policies, 2 conditions/policy (paper §VII-B)\n")
	fmt.Printf("%6s  %5s  %14s  %14s  %14s  %16s\n", "N", "fill%", "ACVgen(Fig3)", "derive(Fig4)", "Fig5 as built", "Fig5 as shipped")
	for _, n := range ns {
		for _, fill := range fills {
			r, err := experiments.Fig3to5Point(n, fill)
			if err != nil {
				return err
			}
			fmt.Printf("%6d  %5d  %14s  %14s  %12.2fKB  %14.2fKB\n", n, fill,
				r.ACVGen.Round(time.Millisecond),
				r.KeyDerive.Round(time.Microsecond),
				float64(r.HeaderSize)/1024, float64(r.ShippedSize)/1024)
		}
	}
	return nil
}

func runFig6(quick bool) error {
	conds := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if quick {
		conds = []int{1, 4, 8}
	}
	fmt.Printf("workload: 25 policies, N=500, 100%% fill (paper §VII-B)\n")
	fmt.Printf("%6s  %16s  %16s\n", "conds", "ACV generation", "key derivation")
	for _, c := range conds {
		r, err := experiments.Fig6Point(c)
		if err != nil {
			return err
		}
		fmt.Printf("%6d  %16s  %16s\n", c,
			r.ACVGen.Round(time.Millisecond),
			r.KeyDerive.Round(time.Microsecond))
	}
	return nil
}

func runAblation() error {
	for _, n := range []int{100, 500, 1000} {
		res, err := experiments.Ablation(n)
		if err != nil {
			return err
		}
		fmt.Printf("\nn = %d subscribers\n", n)
		fmt.Printf("%8s  %12s  %12s  %14s  %12s\n", "scheme", "rekey", "derive", "broadcast", "unicasts")
		for _, r := range res {
			fmt.Printf("%8s  %12s  %12s  %12.1fKB  %12d\n", r.Scheme,
				r.RekeyTime.Round(time.Microsecond),
				r.DeriveTime.Round(time.Microsecond),
				float64(r.BroadcastSize)/1024, r.UnicastMsgs)
		}
	}
	return nil
}

func runFieldAblation() error {
	for _, n := range []int{100, 200, 400} {
		fast, slow, err := experiments.KernelFieldComparison(n)
		if err != nil {
			return err
		}
		fmt.Printf("N=%4d  ff64 build: %10s   big.Int elimination: %10s   speedup: %.1fx\n",
			n, fast.Round(time.Millisecond), slow.Round(time.Millisecond),
			float64(slow)/float64(fast))
	}
	return nil
}

// registerReport is the JSON document emitted by -register: averaged step
// times of the oblivious registration path (§V-B) over the paper's genus-2
// Jacobian ("group" is always "jacobian"), covering both sides of the protocol, plus the end-to-end batch
// throughput. This is the registration counterpart of -publish, so the bench
// trajectory covers both hot phases.
type registerReport struct {
	Group string `json:"group"`
	Subs  int    `json:"subs"`
	Conds int    `json:"conds"`
	Ell   int    `json:"ell"`
	// TokenVerifyNs: one IdMgr signature + commitment check (Pub side).
	TokenVerifyNs int64 `json:"token_verify_ns"`
	// PrepareNs: Sub-side Prepare (bit commitments for GE conditions),
	// averaged per condition.
	PrepareNs int64 `json:"prepare_ns_per_cond"`
	// ComposeEQNs / ComposeGENs: Pub-side envelope composition for one
	// equality / one bitwise inequality condition.
	ComposeEQNs int64 `json:"compose_eq_ns"`
	ComposeGENs int64 `json:"compose_ge_ns"`
	// BatchRegisterNs: end-to-end RegisterBatch wall time for all
	// subscribers (token dedup + parallel envelope compose + table commit).
	BatchRegisterNs int64   `json:"batch_register_ns"`
	Envelopes       int     `json:"envelopes"`
	EnvelopesPerSec float64 `json:"envelopes_per_sec"`
	// LanesUsed / BatchInversions: lane-kernel telemetry accumulated over
	// the whole run — how many scalar multiplications went through the
	// lock-step engine and how many Montgomery batch inversions served
	// them. CI asserts both are positive: a composition that bypassed the
	// lane kernel would pass every correctness test and show here.
	LanesUsed       uint64 `json:"lanes_used"`
	BatchInversions uint64 `json:"batch_inversions"`
}

// runRegisterBench measures the registration crypto path: subscribers hold
// satisfying attribute tokens and register every condition of one policy
// with alternating EQ / GE predicates, batched per subscriber exactly like
// Subscriber.RegisterAll.
func runRegisterBench(subs, conds, ell int) error {
	if subs < 1 || conds < 1 || ell < 1 {
		return fmt.Errorf("ppcd-bench: -register needs subs>=1, conds>=1, ell>=1")
	}
	params, err := pedersen.Setup(g2.MustPaperCurve(), []byte("ppcd-bench"))
	if err != nil {
		return err
	}
	idmgr, err := ppcd.NewIdentityManager(params)
	if err != nil {
		return err
	}
	exprs := make([]string, conds)
	for i := range exprs {
		if i%2 == 0 {
			exprs[i] = fmt.Sprintf("dept%d = eng", i)
		} else {
			exprs[i] = fmt.Sprintf("level%d >= 10", i)
		}
	}
	acp, err := ppcd.NewPolicy("reg-bench", strings.Join(exprs, " && "), "doc", "body")
	if err != nil {
		return err
	}
	pub, err := ppcd.NewPublisher(params, idmgr.PublicKey(), []*ppcd.Policy{acp}, ppcd.Options{Ell: ell})
	if err != nil {
		return err
	}

	var rep registerReport
	rep.Group, rep.Subs, rep.Conds, rep.Ell = "jacobian", subs, conds, ell
	order := params.Order()
	lanes0, inv0 := g2.LaneStats()

	// Sub side: issue tokens and prepare OCBE requests (timed per condition).
	batches := make([][]*pubsub.RegistrationRequest, subs)
	var firstToken *ppcd.Token
	var prepare time.Duration
	for s := 0; s < subs; s++ {
		nym := fmt.Sprintf("pn-%d", s)
		for _, cond := range acp.Conds {
			val := "eng"
			if cond.Op != ocbe.EQ {
				val = "37"
			}
			tok, sec, err := idmgr.IssueString(nym, cond.Attr, val)
			if err != nil {
				return err
			}
			if firstToken == nil {
				firstToken = tok
			}
			recv := ocbe.NewReceiver(params, sec.Value, sec.Blinding)
			pred := ocbe.Predicate{Op: cond.Op, X0: idtoken.EncodeValue(order, cond.Value)}
			start := time.Now()
			_, req, err := recv.Prepare(pred, ell)
			if err != nil {
				return err
			}
			prepare += time.Since(start)
			batches[s] = append(batches[s], &pubsub.RegistrationRequest{Token: tok, CondID: cond.ID(), OCBE: req})
		}
	}
	rep.PrepareNs = prepare.Nanoseconds() / int64(subs*conds)

	// Isolated Pub-side steps, averaged over a few rounds.
	const stepRounds = 5
	var verify time.Duration
	for i := 0; i < stepRounds; i++ {
		start := time.Now()
		if err := idtoken.Verify(params, idmgr.PublicKey(), firstToken); err != nil {
			return err
		}
		verify += time.Since(start)
	}
	rep.TokenVerifyNs = verify.Nanoseconds() / stepRounds
	msg := make([]byte, 8)
	for i, cond := range acp.Conds {
		isEQ := cond.Op == ocbe.EQ
		// One representative condition per kind is enough.
		if (isEQ && rep.ComposeEQNs != 0) || (!isEQ && rep.ComposeGENs != 0) {
			continue
		}
		req := batches[0][i]
		pred := ocbe.Predicate{Op: cond.Op, X0: idtoken.EncodeValue(order, cond.Value)}
		var total time.Duration
		for r := 0; r < stepRounds; r++ {
			start := time.Now()
			if _, err := ocbe.Compose(params, pred, ell, req.OCBE, msg); err != nil {
				return err
			}
			total += time.Since(start)
		}
		if isEQ {
			rep.ComposeEQNs = total.Nanoseconds() / stepRounds
		} else {
			rep.ComposeGENs = total.Nanoseconds() / stepRounds
		}
	}

	// End-to-end: one RegisterBatch round trip per subscriber, as
	// Subscriber.RegisterAll issues them.
	start := time.Now()
	for _, reqs := range batches {
		results, err := pub.RegisterBatch(reqs)
		if err != nil {
			return err
		}
		for _, r := range results {
			if r.Err != "" {
				return fmt.Errorf("ppcd-bench: registration item failed: %s", r.Err)
			}
		}
	}
	elapsed := time.Since(start)
	rep.BatchRegisterNs = elapsed.Nanoseconds()
	rep.Envelopes = subs * conds
	rep.EnvelopesPerSec = float64(rep.Envelopes) / elapsed.Seconds()
	lanes1, inv1 := g2.LaneStats()
	rep.LanesUsed = lanes1 - lanes0
	rep.BatchInversions = inv1 - inv0

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// publishReport is the JSON document emitted by -publish: per-publish wall
// times for the three rekey regimes of the layered engine, plus the engine's
// work counters at the end of the run.
type publishReport struct {
	Subs     int `json:"subs"`
	Policies int `json:"policies"`
	Rounds   int `json:"rounds"`
	// Groups is the requested §VIII-C grouping degree g (1 = ungrouped);
	// GroupSize is the resulting per-group row cap passed to the publisher,
	// ceil(subs/g). The fully-registered policy (attr0, subs rows) shards
	// into exactly g groups; the half-registered ones into ~g/2.
	Groups    int `json:"groups"`
	GroupSize int `json:"group_size"`
	// SteadyNs: publish with no table change (zero ACV solves).
	SteadyNs int64 `json:"steady_ns_per_publish"`
	// ChurnNs: publish after one subscription revocation (only affected
	// configurations — one shard, when grouped — re-solved).
	ChurnNs int64 `json:"churn_ns_per_publish"`
	// FullNs: publish after a wholesale state import (every configuration
	// re-solved; grouping cuts this by ~g²).
	FullNs int64 `json:"full_ns_per_publish"`
	// DeltaBytes vs SnapshotBytes: wire-frame size of a single-leave churn
	// delta against the full snapshot at the same epoch — the dissemination
	// cost of push streaming vs re-fetching the whole broadcast.
	DeltaBytes    int     `json:"delta_bytes"`
	SnapshotBytes int     `json:"snapshot_bytes"`
	DeltaRatio    float64 `json:"delta_ratio"`
	// Stream is the TCP streaming smoke (-stream): real bytes on the wire
	// per streaming subscriber across the run, vs what per-publish full
	// fetches would have shipped.
	Stream *streamReport `json:"stream,omitempty"`
	Stats  struct {
		Rekeys         uint64 `json:"rekeys"`
		Rebuilds       uint64 `json:"rebuilds"`
		CacheHits      uint64 `json:"cache_hits"`
		Solves         uint64 `json:"solves"`
		DominanceSkips uint64 `json:"dominance_skips"`
	} `json:"engine_stats"`
}

// runPublishBench measures steady-state vs churn vs full-rebuild publish
// cost on a synthetic table injected through the state-import path (no OCBE
// exchanges), printing one JSON object to stdout. groups > 1 caps group
// size at ceil(subs/groups) (§VIII-C), sharding the dominant full-subs
// policy into exactly `groups` groups, which makes the N³/g² claim a
// measured series: run with -groups 1 for the baseline and higher g to
// compare.
func runPublishBench(subs, policies, rounds, groups int, stream bool) error {
	if subs < 4 || policies < 1 || rounds < 1 || groups < 1 {
		return fmt.Errorf("ppcd-bench: -publish needs subs>=4, policies>=1, rounds>=1, groups>=1")
	}
	params, err := ppcd.Setup(ppcd.PaperCurve(), []byte("ppcd-bench"))
	if err != nil {
		return err
	}
	idmgr, err := ppcd.NewIdentityManager(params)
	if err != nil {
		return err
	}
	// Synthetic CSS table loaded through the replication-event path so no
	// OCBE exchanges run. The first half of the pseudonyms hold only
	// attr0: the churn regime revokes from that pool, so each timed publish
	// re-solves exactly one configuration (a genuine single-leave, not a
	// full rebuild).
	acps, doc, rows, err := benchutil.Workload(subs, policies, subs/2, 1024)
	if err != nil {
		return err
	}
	groupSize := 0
	if groups > 1 {
		groupSize = (subs + groups - 1) / groups
	}
	pub, err := ppcd.NewPublisher(params, idmgr.PublicKey(), acps, ppcd.Options{Ell: 8, GroupSize: groupSize})
	if err != nil {
		return err
	}

	measure := func(prep func(i int) error) (int64, error) {
		var total time.Duration
		for i := 0; i < rounds; i++ {
			if prep != nil {
				if err := prep(i); err != nil {
					return 0, err
				}
			}
			start := time.Now()
			if _, err := pub.Publish(doc); err != nil {
				return 0, err
			}
			total += time.Since(start)
		}
		return total.Nanoseconds() / int64(rounds), nil
	}

	var rep publishReport
	rep.Subs, rep.Policies, rep.Rounds = subs, policies, rounds
	rep.Groups, rep.GroupSize = groups, groupSize

	// Full rebuild: drop every cached ACV build before each publish.
	// (Re-loading an identical table dirties nothing — the explicit reset
	// keeps this regime measuring a genuine full re-solve.)
	if rep.FullNs, err = measure(func(int) error {
		if err := benchutil.Load(pub, rows); err != nil {
			return err
		}
		pub.ResetRekeyCache()
		return nil
	}); err != nil {
		return err
	}
	// Churn: one subscription revocation per publish. When the revocation
	// pool runs dry (rounds > pool), the untimed prep re-loads the table
	// and settles it with one publish so every timed publish sees exactly
	// one fresh leave.
	pool := subs / 2
	if rep.ChurnNs, err = measure(func(i int) error {
		if i%pool == 0 {
			if err := benchutil.Load(pub, rows); err != nil {
				return err
			}
			if _, err := pub.Publish(doc); err != nil {
				return err
			}
		}
		return pub.RevokeSubscription(fmt.Sprintf("pn-%d", i%pool))
	}); err != nil {
		return err
	}
	// Steady state: no table change between publishes. Restore the full
	// table first — the churn regime depleted it, and the reported subs
	// count must match what this regime actually publishes over.
	if err := benchutil.Load(pub, rows); err != nil {
		return err
	}
	if _, err := pub.Publish(doc); err != nil {
		return err
	}
	if rep.SteadyNs, err = measure(nil); err != nil {
		return err
	}

	// Dissemination bytes: one controlled single-leave on the settled table,
	// then the wire-frame sizes of the resulting delta vs the full snapshot.
	base, err := pub.Publish(doc)
	if err != nil {
		return err
	}
	if err := pub.RevokeSubscription("pn-0"); err != nil {
		return err
	}
	churned, err := pub.Publish(doc)
	if err != nil {
		return err
	}
	d, err := ppcd.Diff(base, churned)
	if err != nil {
		return err
	}
	rep.SnapshotBytes = len(wire.MarshalSnapshotFrame(churned))
	rep.DeltaBytes = len(wire.MarshalDeltaFrame(d))
	rep.DeltaRatio = float64(rep.DeltaBytes) / float64(rep.SnapshotBytes)

	if stream {
		if rep.Stream, err = runStreamSmoke(pub, doc, subs); err != nil {
			return err
		}
	}

	s := pub.Stats()
	rep.Stats.Rekeys, rep.Stats.Rebuilds, rep.Stats.CacheHits, rep.Stats.Solves, rep.Stats.DominanceSkips =
		s.Rekeys, s.Rebuilds, s.CacheHits, s.Solves, s.DominanceSkips
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// streamReport is the -publish -stream section: a real TCP server fanning
// churn publishes out to streaming subscribers, with the measured bytes each
// consumed (snapshot catch-up + one delta per publish) against the pull
// alternative (one full snapshot per publish).
type streamReport struct {
	Subscribers     int   `json:"subscribers"`
	Publishes       int   `json:"publishes"`
	SnapshotFrames  int   `json:"snapshot_frames"`
	DeltaFrames     int   `json:"delta_frames"`
	BytesPerSub     int64 `json:"bytes_per_subscriber"`
	FetchBytesEquiv int64 `json:"fetch_bytes_equivalent"`
}

// runStreamSmoke drives the streaming dissemination path end to end over
// localhost TCP: 8 subscribers hold open streams while the publisher churns
// one revocation per publish; every subscriber must converge on the final
// epoch having received exactly one snapshot and then deltas.
func runStreamSmoke(pub *ppcd.Publisher, doc *ppcd.Document, subs int) (*streamReport, error) {
	const nStreams = 8
	churns := 3
	if max := subs/2 - 1; churns > max {
		churns = max
	}
	if churns < 1 {
		return nil, fmt.Errorf("ppcd-bench: -stream needs subs >= 6")
	}

	srv, err := ppcd.NewServer(pub)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	seed, err := pub.Publish(doc)
	if err != nil {
		return nil, err
	}
	if err := srv.PublishBroadcast(seed); err != nil {
		return nil, err
	}

	rep := &streamReport{Subscribers: nStreams}
	type result struct {
		snaps, deltas int
		bytes         int64
		err           error
	}
	results := make(chan result, nStreams)
	var finalEpoch uint64
	var epochMu sync.Mutex
	finalKnown := make(chan struct{})

	for i := 0; i < nStreams; i++ {
		go func() {
			var res result
			defer func() { results <- res }()
			client, err := ppcd.Dial(addr, pub.Params())
			if err != nil {
				res.err = err
				return
			}
			defer client.Close()
			st, err := client.Subscribe(doc.Name, 0, 0)
			if err != nil {
				res.err = err
				return
			}
			defer st.Close()
			// Consume frames as they arrive — buffering them in the kernel
			// until the publishes finish would trip the server's
			// slow-consumer eviction on large workloads. A dedicated reader
			// goroutine feeds a select so the consumer can also learn the
			// final target epoch the moment publishing ends; closing the
			// stream on return unblocks the reader.
			frames := make(chan *ppcd.StreamFrame, 64)
			readErr := make(chan error, 1)
			go func() {
				for {
					if err := st.SetReadDeadline(time.Now().Add(60 * time.Second)); err != nil {
						readErr <- err
						return
					}
					f, err := st.Next()
					if err != nil {
						readErr <- err
						return
					}
					frames <- f
				}
			}()
			var maxEpoch, target uint64
			haveTarget := false
			fk := finalKnown
			for {
				if haveTarget && maxEpoch >= target {
					return
				}
				select {
				case f := <-frames:
					switch f.Type {
					case ppcd.FrameSnapshot:
						res.snaps++
					case ppcd.FrameDelta:
						res.deltas++
					case ppcd.FrameHeartbeat:
						continue
					}
					res.bytes = st.BytesRead()
					if f.Epoch > maxEpoch {
						maxEpoch = f.Epoch
					}
				case err := <-readErr:
					res.err = err
					return
				case <-fk:
					epochMu.Lock()
					target = finalEpoch
					epochMu.Unlock()
					haveTarget = true
					fk = nil // closed channel: disarm so the select never busy-spins
				}
			}
		}()
	}
	// Give the subscribe requests a moment to land before churning; a late
	// joiner still converges (its first frame is a newer snapshot).
	time.Sleep(200 * time.Millisecond)

	var snapshotTotal int64
	for k := 0; k < churns; k++ {
		if err := pub.RevokeSubscription(fmt.Sprintf("pn-%d", k+1)); err != nil {
			return nil, err
		}
		b, err := pub.Publish(doc)
		if err != nil {
			return nil, err
		}
		if err := srv.PublishBroadcast(b); err != nil {
			return nil, err
		}
		snapshotTotal += int64(len(wire.MarshalSnapshotFrame(b)))
		epochMu.Lock()
		finalEpoch = b.Epoch
		epochMu.Unlock()
	}
	close(finalKnown)
	rep.Publishes = churns
	rep.FetchBytesEquiv = snapshotTotal

	for i := 0; i < nStreams; i++ {
		res := <-results
		if res.err != nil {
			return nil, fmt.Errorf("ppcd-bench: streaming subscriber: %w", res.err)
		}
		rep.SnapshotFrames += res.snaps
		rep.DeltaFrames += res.deltas
		rep.BytesPerSub += res.bytes
	}
	rep.BytesPerSub /= nStreams
	return rep, nil
}
