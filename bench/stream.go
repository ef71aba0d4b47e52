package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ppcd"
	"ppcd/internal/core"
	"ppcd/internal/wire"
)

// runEnv is what every workload receives: the seed-derived generator, the
// measured duration, the number of subscriber lanes, the oracle and (traced
// run only) the tracer.
type runEnv struct {
	seed      uint64
	seconds   float64
	s         int
	setupReps int
	toy       bool
	fault     bool
	outDir    string
	orc       *oracle
	tr        *tracer // nil in the untraced run
}

// repeatSetup builds the workload's rig env.setupReps times, closing all but
// the last, and records how long each build took: the median is setup_s and
// the last rig is the one measured.
func repeatSetup[R interface{ close() }](env *runEnv, res *result, build func(rep int) (R, error)) (rig R, err error) {
	for rep := 0; rep < env.setupReps; rep++ {
		if rep > 0 {
			rig.close()
		}
		runtime.GC()
		t0 := time.Now()
		if rig, err = build(rep); err != nil {
			return rig, err
		}
		res.SetupSeconds = append(res.SetupSeconds, time.Since(t0).Seconds())
	}
	return rig, nil
}

// setProcMetrics charges the traced phase's allocation and GC cost to its n
// ops.
func setProcMetrics(res *result, p0, p1 procSnap, n float64) {
	res.set("proc.alloc_mb_per_op", float64(p1.alloc-p0.alloc)/(1<<20)/n)
	res.set("proc.mallocs_per_op", float64(p1.mallocs-p0.mallocs)/n)
	res.set("proc.gc_pause_ms_per_op", float64(p1.pauseNs-p0.pauseNs)/1e6/n)
	res.set("proc.peak_rss_mb", peakRSSMB())
}

// setSolveCounters reports the rekey engine's exact work counters per op.
func setSolveCounters(res *result, st0, st1 ppcd.RekeyStats, n float64) {
	res.set("core.solves_per_op", float64(st1.Solves-st0.Solves)/n)
	res.set("core.rebuilds_per_op", float64(st1.Rebuilds-st0.Rebuilds)/n)
	res.set("core.cache_hits_per_op", float64(st1.CacheHits-st0.CacheHits)/n)
	res.set("core.dominance_skips_per_op", float64(st1.DominanceSkips-st0.DominanceSkips)/n)
}

// opTimeout bounds the wait for one op's lanes; a lane that lost its stream
// would otherwise hang the run.
const opTimeout = 60 * time.Second

// streamCfg describes a workload on the streaming path: origin → (relay) →
// S subscriber lanes. Policies are single-condition ("attr<i> >= 1" guarding
// subdocument "sd<i>").
type streamCfg struct {
	name        string
	rows        int
	policies    int
	holds       func(row, pol int) bool
	laneRows    []int // table rows the lanes subscribe as; never revoked
	groupSize   int
	subdocBytes int
	warmOps     int
	// openRate > 0 measures latency open loop at that many ops/s for
	// openShare of the run and throughput closed loop for the rest; 0
	// measures both closed loop over the whole run.
	openRate  float64
	openShare float64
	// newMutate returns the op's membership events for a fresh rig. The
	// returned func applies one op's events and hands back the cells of a
	// row it revoked (the canary leaver).
	newMutate func(r *streamRig) func() (map[string]core.CSS, error)
	// scaling adds the one-worker full re-solve to the traced run.
	scaling bool
	shape   map[string]any
}

func condID(pol int) string   { return fmt.Sprintf("attr%d >= 1", pol) }
func subdocOf(pol int) string { return fmt.Sprintf("sd%d", pol) }

func singleCondPolicies(n int) ([]*ppcd.Policy, []string, []string, error) {
	var acps []*ppcd.Policy
	var conds, subdocs []string
	for i := 0; i < n; i++ {
		acp, err := ppcd.NewPolicy(fmt.Sprintf("acp%d", i), condID(i), docName, subdocOf(i))
		if err != nil {
			return nil, nil, nil, err
		}
		acps = append(acps, acp)
		conds = append(conds, condID(i))
		subdocs = append(subdocs, subdocOf(i))
	}
	return acps, conds, subdocs, nil
}

// opInfo is one op as the publishing goroutine saw it. Lanes find it by
// epoch when the frame arrives.
type opInfo struct {
	idx      int
	traced   bool
	due      time.Time // latency origin: the due time (open loop) or the op's start
	start    time.Time
	mutEnd   time.Time
	pubEnd   time.Time
	diffEnd  time.Time
	mdEnd    time.Time
	msEnd    time.Time
	enqEnd   time.Time
	tapRecv  time.Time
	epoch    uint64
	plain    map[string][]byte
	canary   map[string]core.CSS
	deltaLen int

	pending atomic.Int32
	done    chan struct{}
}

// laneRec is one op as one lane saw it.
type laneRec struct {
	op       *opInfo
	recv     time.Time
	unmEnd   time.Time
	applyEnd time.Time
	decEnd   time.Time
	end      time.Time
}

type lane struct {
	id     int
	sub    *ppcd.Subscriber
	expect []string
	forbid []string
	st     *ppcd.Stream
	epoch  uint64
	gen    uint64
	recs   []laneRec
	exited chan struct{}
	bytes0 int64
}

type canaryJob struct {
	op *opInfo
	b  *ppcd.Broadcast
}

type streamRig struct {
	cfg     *streamCfg
	env     *runEnv
	g       *rng
	tbl     *table
	subdocs []string
	params  *ppcd.CommitmentParams
	pub     *ppcd.Publisher
	srv     *ppcd.Server
	relay   *ppcd.Relay
	lanes   []*lane
	tapSt   *ppcd.Stream
	tapDone chan struct{}
	mutate  func() (map[string]core.CSS, error)
	prev    *ppcd.Broadcast
	opSeq   int
	loadMs  float64
	// validCells is lane 0's row: what the self-test's fault hands the canary.
	validCells map[string]core.CSS

	mu  sync.Mutex
	ops map[uint64]*opInfo

	canaryCh   chan canaryJob
	canaryDone chan struct{}
	closing    atomic.Bool
}

var (
	schnorrOnce   sync.Once
	schnorrParams *ppcd.CommitmentParams
	schnorrKey    []byte
	schnorrErr    error
)

// tableParams returns commitment parameters for the workloads that inject
// table T directly: registration never runs there, so the (cheap) Schnorr
// group only satisfies the constructor.
func tableParams() (*ppcd.CommitmentParams, []byte, error) {
	schnorrOnce.Do(func() {
		schnorrParams, schnorrErr = ppcd.Setup(ppcd.SchnorrGroup(), []byte("ppcd-bench-e2e"))
		if schnorrErr != nil {
			return
		}
		var idmgr *ppcd.IdentityManager
		idmgr, schnorrErr = ppcd.NewIdentityManager(schnorrParams)
		if schnorrErr == nil {
			schnorrKey = idmgr.PublicKey()
		}
	})
	return schnorrParams, schnorrKey, schnorrErr
}

// newStreamRig builds the whole pipeline and runs the warm-up ops: when it
// returns, the next op is the first measured one.
func newStreamRig(env *runEnv, cfg *streamCfg, rep int) (_ *streamRig, err error) {
	r := &streamRig{
		cfg: cfg, env: env,
		g:          newRNG(env.seed, fmt.Sprintf("%s/%d", cfg.name, rep)),
		ops:        make(map[uint64]*opInfo),
		canaryCh:   make(chan canaryJob, 1024), // never blocks a lane: far above the ops in flight
		canaryDone: make(chan struct{}),
	}
	go r.canaryLoop()
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	acps, conds, subdocs, err := singleCondPolicies(cfg.policies)
	if err != nil {
		return nil, err
	}
	r.subdocs = subdocs
	params, idKey, err := tableParams()
	if err != nil {
		return nil, err
	}
	r.params = params
	r.pub, err = ppcd.NewPublisher(params, idKey, acps, ppcd.Options{GroupSize: cfg.groupSize})
	if err != nil {
		return nil, err
	}
	r.tbl = newTable(r.g, cfg.rows, conds, cfg.holds)
	t0 := time.Now()
	if err := r.tbl.load(r.pub); err != nil {
		return nil, err
	}
	r.loadMs = ms(time.Since(t0))
	r.mutate = cfg.newMutate(r)
	r.validCells = r.tbl.cells(cfg.laneRows[0])

	r.srv, err = ppcd.NewServer(r.pub)
	if err != nil {
		return nil, err
	}
	r.srv.SetHeartbeatInterval(0)
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	originAddr := addr
	r.relay, err = ppcd.NewRelay(addr, params, &ppcd.RelayOptions{Heartbeat: -1, ReconnectDelay: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	if addr, err = r.relay.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	// The cold solve: every shard of every configuration, no lane attached.
	seed, err := r.doOp(time.Time{}, false)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(opTimeout)
	for r.relay.LastEpoch() < seed.epoch {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: relay stuck at epoch %d, want %d", r.relay.LastEpoch(), seed.epoch)
		}
		time.Sleep(time.Millisecond)
	}
	// The seed op completes when every lane has decrypted its catch-up
	// snapshot.
	seed.pending.Add(int32(env.s))
	for l := 0; l < env.s; l++ {
		ln, err := r.newLane(l, addr)
		if err != nil {
			return nil, err
		}
		r.lanes = append(r.lanes, ln)
		go ln.run(r)
	}
	if err := r.wait(seed); err != nil {
		return nil, err
	}
	if env.tr != nil {
		if err := r.startTap(originAddr); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.warmOps; i++ {
		op, err := r.doOp(time.Time{}, false)
		if err != nil {
			return nil, err
		}
		if err := r.wait(op); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *streamRig) newLane(id int, addr string) (*lane, error) {
	row := r.cfg.laneRows[id%len(r.cfg.laneRows)]
	cells := r.tbl.cells(row)
	sub, err := subscriberFor(rowNym(row), cells)
	if err != nil {
		return nil, err
	}
	ln := &lane{id: id, sub: sub, exited: make(chan struct{})}
	for p := 0; p < r.cfg.policies; p++ {
		if _, ok := cells[condID(p)]; ok {
			ln.expect = append(ln.expect, subdocOf(p))
		} else {
			ln.forbid = append(ln.forbid, subdocOf(p))
		}
	}
	cl, err := ppcd.Dial(addr, r.params)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	ln.st, err = cl.Subscribe(docName, 0, 0)
	if err != nil {
		return nil, err
	}
	return ln, nil
}

// startTap attaches the traced run's extra stream straight to the origin:
// its receive time splits a lane's delivery time into origin and relay hop.
func (r *streamRig) startTap(originAddr string) error {
	cl, err := ppcd.Dial(originAddr, r.params)
	if err != nil {
		return err
	}
	defer cl.Close()
	st, err := cl.Subscribe(docName, r.prev.Epoch, r.prev.Gen)
	if err != nil {
		return err
	}
	r.tapSt, r.tapDone = st, make(chan struct{})
	go func() {
		defer close(r.tapDone)
		for {
			f, err := st.Next()
			now := time.Now()
			if err != nil {
				return
			}
			if op := r.lookup(f.Epoch); op != nil {
				r.mu.Lock()
				op.tapRecv = now
				r.mu.Unlock()
			}
		}
	}()
	return nil
}

func (r *streamRig) lookup(epoch uint64) *opInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ops[epoch]
}

// doOp runs the publisher's half of one op: membership events, Publish,
// fan-out. In a traced op the bench calls the pieces of PublishBroadcast
// itself (diff, both marshals, enqueue) so each gets its own span.
func (r *streamRig) doOp(due time.Time, traced bool) (*opInfo, error) {
	doc, plain, err := payloads(r.g, r.subdocs, r.cfg.subdocBytes)
	if err != nil {
		return nil, err
	}
	op := &opInfo{idx: r.opSeq, traced: traced, plain: plain, done: make(chan struct{})}
	r.opSeq++
	op.start = time.Now()
	op.due = due
	if due.IsZero() {
		op.due = op.start
	}
	if op.canary, err = r.mutate(); err != nil {
		return nil, err
	}
	op.mutEnd = time.Now()
	b, err := r.pub.Publish(doc)
	if err != nil {
		return nil, err
	}
	op.pubEnd = time.Now()
	op.epoch = b.Epoch
	op.pending.Store(int32(len(r.lanes)))
	r.mu.Lock()
	r.ops[b.Epoch] = op
	delete(r.ops, b.Epoch-64) // lanes are at most a queue depth behind
	r.mu.Unlock()
	if traced && r.prev != nil {
		d, err := ppcd.Diff(r.prev, b)
		if err != nil {
			return nil, err
		}
		op.diffEnd = time.Now()
		rawD := wire.MarshalDeltaFrame(d)
		op.mdEnd = time.Now()
		rawS := wire.MarshalSnapshotFrame(b)
		op.msEnd = time.Now()
		op.deltaLen = len(rawD)
		err = r.srv.PublishRaw(b, rawS, rawD, r.prev.Epoch)
		if err != nil {
			return nil, err
		}
	} else if err := r.srv.PublishBroadcast(b); err != nil {
		return nil, err
	}
	op.enqEnd = time.Now()
	r.prev = b
	return op, nil
}

func (r *streamRig) wait(op *opInfo) error {
	select {
	case <-op.done:
		return nil
	case <-time.After(opTimeout):
		r.env.orc.fail("op %d (epoch %d): lanes did not finish within %v", op.idx, op.epoch, opTimeout)
		return fmt.Errorf("bench: op %d timed out", op.idx)
	}
}

func (ln *lane) run(r *streamRig) {
	defer close(ln.exited)
	orc := r.env.orc
	for {
		f, raw, err := ln.st.NextRaw()
		rec := laneRec{recv: time.Now()}
		if err != nil {
			if !r.closing.Load() {
				orc.fail("lane %d: stream ended: %v", ln.id, err)
			}
			return
		}
		if f.Type == ppcd.FrameHeartbeat {
			continue
		}
		rec.op = r.lookup(f.Epoch)
		rec.unmEnd = rec.recv
		if rec.op != nil && rec.op.traced {
			// NextRaw decodes inside the read; decode the same bytes again
			// to give the decoder a span of its own.
			if _, err := wire.UnmarshalFrame(raw); err != nil {
				orc.fail("lane %d: re-decoding frame: %v", ln.id, err)
			}
			rec.unmEnd = time.Now()
		}
		var gen uint64
		switch f.Type {
		case ppcd.FrameSnapshot:
			gen = f.Snapshot.Gen
			err = ln.sub.ApplySnapshot(f.Snapshot)
		case ppcd.FrameDelta:
			gen = f.Delta.Gen
			err = ln.sub.ApplyDelta(f.Delta)
		}
		rec.applyEnd = time.Now()
		if err != nil {
			orc.fail("lane %d: applying epoch %d: %v", ln.id, f.Epoch, err)
			return
		}
		plain, err := ln.sub.DecryptCurrent(docName)
		rec.decEnd = time.Now()
		if err != nil {
			orc.fail("lane %d: decrypting epoch %d: %v", ln.id, f.Epoch, err)
			return
		}
		orc.check(f.Epoch > ln.epoch, "lane %d: epoch %d after %d", ln.id, f.Epoch, ln.epoch)
		orc.check(ln.gen == 0 || gen == ln.gen, "lane %d: generation changed at epoch %d", ln.id, f.Epoch)
		ln.epoch, ln.gen = f.Epoch, gen
		if rec.op == nil {
			orc.fail("lane %d: frame for unknown epoch %d", ln.id, f.Epoch)
			continue
		}
		verifyPlain(orc, ln.id, ln.expect, ln.forbid, rec.op.plain, plain, f.Epoch)
		rec.end = time.Now()
		ln.recs = append(ln.recs, rec)
		if ln.id == 0 && rec.op.canary != nil {
			r.canaryCh <- canaryJob{op: rec.op, b: ln.sub.Current(docName)}
		}
		if rec.op.pending.Add(-1) == 0 {
			close(rec.op.done)
		}
	}
}

// verifyPlain compares what a lane decrypted with what was published at that
// epoch: every subdocument its row qualifies for, byte for byte, and none of
// the others.
func verifyPlain(orc *oracle, lane int, expect, forbid []string, want, got map[string][]byte, epoch uint64) {
	for _, sd := range expect {
		orc.check(bytes.Equal(got[sd], want[sd]), "lane %d: epoch %d: plaintext of %s differs", lane, epoch, sd)
	}
	for _, sd := range forbid {
		_, leaked := got[sd]
		orc.check(!leaked, "lane %d: epoch %d: obtained %s without satisfying its policy", lane, epoch, sd)
	}
}

// canaryLoop plays the leaver: a subscriber holding the cells a row had just
// before this op revoked it must get nothing out of the op's broadcast.
func (r *streamRig) canaryLoop() {
	defer close(r.canaryDone)
	for job := range r.canaryCh {
		checkCanary(r.env, job.op.canary, r.validCells, job.b, job.op.epoch)
	}
}

func checkCanary(env *runEnv, cells, validCells map[string]core.CSS, b *ppcd.Broadcast, epoch uint64) {
	if env.fault {
		// The self-test's fault: a leaver that kept a valid row.
		cells = validCells
	}
	sub, err := subscriberFor("canary", cells)
	if err != nil {
		env.orc.fail("canary: %v", err)
		return
	}
	got, err := sub.Decrypt(b)
	env.orc.check(err == nil && len(got) == 0, "canary revoked before epoch %d still decrypts %d subdocuments (err %v)", epoch, len(got), err)
}

func (r *streamRig) close() {
	r.closing.Store(true)
	for _, ln := range r.lanes {
		ln.st.Close()
		<-ln.exited
	}
	if r.tapSt != nil {
		r.tapSt.Close()
		<-r.tapDone
	}
	close(r.canaryCh)
	<-r.canaryDone
	if r.relay != nil {
		r.relay.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
}

// phase is a run of measured ops with its cost readings.
type phase struct {
	ops      []*opInfo
	lates    []float64
	p0, p1   procSnap
	rx       int64 // bytes read by all lanes
	stats0   ppcd.RekeyStats
	stats1   ppcd.RekeyStats
	ofr, oby int64 // origin egress frames / bytes
	rby      int64 // relay egress bytes
}

// runPhase issues ops for d: open loop at rate ops/s when rate > 0, else
// closed loop (one op outstanding). It returns once every lane has verified
// the last op.
func (r *streamRig) runPhase(d time.Duration, rate float64, traced bool) (*phase, error) {
	ph := &phase{p0: readProc(), stats0: r.pub.Stats()}
	for _, ln := range r.lanes {
		ln.bytes0 = ln.st.BytesRead()
	}
	of0, ob0 := r.srv.Egress()
	_, rb0 := r.relay.Egress()
	end := ph.p0.at.Add(d)
	if rate > 0 {
		pc := newPacer(ph.p0.at, time.Duration(float64(time.Second)/rate))
		for {
			due, late := pc.next()
			if !due.Before(end) {
				break
			}
			op, err := r.doOp(due, traced)
			if err != nil {
				return nil, err
			}
			ph.ops = append(ph.ops, op)
			ph.lates = append(ph.lates, ms(late))
		}
		if n := len(ph.ops); n > 0 {
			if err := r.wait(ph.ops[n-1]); err != nil {
				return nil, err
			}
		}
	} else {
		for time.Now().Before(end) || (r.env.toy && len(ph.ops) < 2) {
			op, err := r.doOp(time.Time{}, traced)
			if err != nil {
				return nil, err
			}
			if err := r.wait(op); err != nil {
				return nil, err
			}
			ph.ops = append(ph.ops, op)
		}
	}
	ph.p1, ph.stats1 = readProc(), r.pub.Stats()
	for _, ln := range r.lanes {
		ph.rx += ln.st.BytesRead() - ln.bytes0
	}
	of1, ob1 := r.srv.Egress()
	_, rb1 := r.relay.Egress()
	ph.ofr, ph.oby, ph.rby = of1-of0, ob1-ob0, rb1-rb0
	return ph, nil
}

func (ph *phase) seconds() float64 { return ph.p1.at.Sub(ph.p0.at).Seconds() }

// latencies collects the e2e samples of the given ops: one per (op, lane),
// from the op's due time to the lane's verified plaintext.
func (r *streamRig) latencies(ops []*opInfo) []float64 {
	want := make(map[*opInfo]bool, len(ops))
	for _, op := range ops {
		want[op] = true
	}
	var out []float64
	for _, ln := range r.lanes {
		for _, rec := range ln.recs {
			if want[rec.op] {
				out = append(out, ms(rec.end.Sub(rec.op.due)))
			}
		}
	}
	return out
}

// chainNames are the spans that tile a traced sample from its due time to
// its verified plaintext, in order.
var chainNames = []string{
	"pacer.wait", "pubsub.mutate", "pubsub.publish", "fanout.publish", "pubsub.diff",
	"wire.marshal_delta", "wire.marshal_snapshot", "fanout.enqueue",
	"transport.tap_lag", "relay.hop", "wire.unmarshal", "subscriber.apply",
	"subscriber.decrypt", "oracle.verify",
}

// setChain reports how much of the traced median latency the spans that
// tile an op explain, and the remainder.
func setChain(res *result, layers map[string]layerStat, names []string, p50 float64) {
	var chain float64
	for _, name := range names {
		chain += layers[name].perOp
	}
	res.set("proc.chain_sum_ms", chain)
	res.set("proc.unattributed_ms", p50-chain)
}

// emitSpans turns the timestamps of the traced ops into spans.
func (r *streamRig) emitSpans(ops []*opInfo) {
	tr := r.env.tr
	want := make(map[*opInfo]bool, len(ops))
	for _, op := range ops {
		want[op] = true
		p := publisherLane
		tr.add(op.idx, p, "pacer.wait", "", op.due, op.start)
		tr.add(op.idx, p, "pubsub.mutate", "", op.start, op.mutEnd)
		tr.add(op.idx, p, "pubsub.publish", "", op.mutEnd, op.pubEnd)
		tr.add(op.idx, p, "fanout.publish", "", op.pubEnd, op.enqEnd)
		tr.add(op.idx, p, "pubsub.diff", "fanout.publish", op.pubEnd, op.diffEnd)
		tr.add(op.idx, p, "wire.marshal_delta", "fanout.publish", op.diffEnd, op.mdEnd)
		tr.add(op.idx, p, "wire.marshal_snapshot", "fanout.publish", op.mdEnd, op.msEnd)
		tr.add(op.idx, p, "fanout.enqueue", "fanout.publish", op.msEnd, op.enqEnd)
		r.mu.Lock()
		tap := op.tapRecv
		r.mu.Unlock()
		if !tap.IsZero() {
			tr.add(op.idx, p, "transport.tap_lag", "", op.enqEnd, tap)
		}
	}
	for _, ln := range r.lanes {
		for _, rec := range ln.recs {
			if !want[rec.op] {
				continue
			}
			r.mu.Lock()
			tap := rec.op.tapRecv
			r.mu.Unlock()
			if tap.IsZero() || tap.After(rec.recv) {
				tap = rec.recv
			}
			i := rec.op.idx
			tr.add(i, ln.id, "relay.hop", "", tap, rec.recv)
			tr.add(i, ln.id, "wire.unmarshal", "", rec.recv, rec.unmEnd)
			tr.add(i, ln.id, "subscriber.apply", "", rec.unmEnd, rec.applyEnd)
			tr.add(i, ln.id, "subscriber.decrypt", "", rec.applyEnd, rec.decEnd)
			tr.add(i, ln.id, "oracle.verify", "", rec.decEnd, rec.end)
		}
	}
}

// runStream is the driver shared by churn-stream, rekey-storm and
// paper-direct.
func runStream(env *runEnv, cfg *streamCfg, res *result) error {
	rig, err := repeatSetup(env, res, func(rep int) (*streamRig, error) { return newStreamRig(env, cfg, rep) })
	if err != nil {
		return err
	}
	defer rig.close()
	res.Shape = cfg.shape

	total := time.Duration(env.seconds * float64(time.Second))
	if env.tr == nil {
		return rig.measureEndToEnd(total, res)
	}
	return rig.measureLayers(total, res)
}

func (r *streamRig) measureEndToEnd(total time.Duration, res *result) error {
	cfg := r.cfg
	var lat, closed []slice
	var rx int64
	run := func(d time.Duration, rate float64) ([]slice, error) {
		var out []slice
		for i := 0; i < sliceCount; i++ {
			ph, err := r.runPhase(d/sliceCount, rate, false)
			if err != nil {
				return nil, err
			}
			rx += ph.rx
			lat := r.latencies(ph.ops)
			// Every lane is idle once the phase's last op is verified: drop the
			// slice's records, so the heap reading is the program's and not the
			// bench's own bookkeeping.
			for _, ln := range r.lanes {
				ln.recs = nil
			}
			out = append(out, slice{lat: lat, ops: len(ph.ops), seconds: ph.seconds(), cpu: ph.p1.cpu - ph.p0.cpu, heapMB: heapLiveMB()})
		}
		return out, nil
	}
	var err error
	if cfg.openRate > 0 {
		openDur := time.Duration(float64(total) * cfg.openShare)
		if lat, err = run(openDur, cfg.openRate); err != nil {
			return err
		}
		if closed, err = run(total-openDur, 0); err != nil {
			return err
		}
	} else if lat, err = run(total, 0); err != nil {
		return err
	}
	r.drainCanary()
	return reduceEndToEnd(res, lat, closed, float64(rx)/float64(len(r.lanes)))
}

// drainCanary waits until the canary lane has judged every op issued so far.
func (r *streamRig) drainCanary() {
	for len(r.canaryCh) > 0 {
		time.Sleep(time.Millisecond)
	}
}

var errNoTracedOps = errors.New("bench: traced phase completed no op")

// measureLayers is the traced run: a short untraced segment for the
// overhead ratio, then traced ops in the workload's latency mode, then the
// direct-call kernels at the workload's shape.
func (r *streamRig) measureLayers(total time.Duration, res *result) error {
	cfg := r.cfg
	plainDur := total * 3 / 10
	plainPh, err := r.runPhase(plainDur, cfg.openRate, false)
	if err != nil {
		return err
	}
	rs0 := r.relay.Stats()
	ph, err := r.runPhase(total-plainDur, cfg.openRate, true)
	if err != nil {
		return err
	}
	if len(ph.ops) == 0 {
		return errNoTracedOps
	}
	rs1 := r.relay.Stats()
	res.MeasuredSeconds = plainPh.seconds() + ph.seconds()
	res.Ops = len(ph.ops)
	n := float64(len(ph.ops))
	r.emitSpans(ph.ops)
	layers := r.env.tr.layers()

	lat := r.latencies(ph.ops)
	p50 := median(lat)
	res.Samples = map[string]int{"e2e_traced": len(lat), "ops_traced": len(ph.ops)}
	res.set("proc.e2e_p50_traced_ms", p50)
	res.set("proc.e2e_p90_ms", nearestRank(lat, 90))
	res.set("proc.e2e_p99_ms", nearestRank(lat, 99))
	res.set("proc.gen_late_p99_ms", nearestRank(ph.lates, 99))
	if base := median(r.latencies(plainPh.ops)); base > 0 {
		res.set("proc.trace_overhead_ratio", p50/base)
	}
	setChain(res, layers, chainNames, p50)

	res.set("pubsub.load_ms", r.loadMs)
	for metric, spanName := range map[string]string{
		"pubsub.mutate_ms":         "pubsub.mutate",
		"pubsub.publish_ms":        "pubsub.publish",
		"pubsub.diff_ms":           "pubsub.diff",
		"wire.marshal_delta_ms":    "wire.marshal_delta",
		"wire.marshal_snapshot_ms": "wire.marshal_snapshot",
		"wire.unmarshal_ms":        "wire.unmarshal",
		"fanout.publish_ms":        "fanout.publish",
		"fanout.enqueue_ms":        "fanout.enqueue",
		"transport.tap_lag_ms":     "transport.tap_lag",
		"relay.hop_ms":             "relay.hop",
		"subscriber.apply_ms":      "subscriber.apply",
		"subscriber.decrypt_ms":    "subscriber.decrypt",
	} {
		res.set(metric, layers[spanName].call)
	}
	var pubMs, deltaBytes []float64
	for _, op := range ph.ops {
		pubMs = append(pubMs, ms(op.pubEnd.Sub(op.mutEnd)))
		deltaBytes = append(deltaBytes, float64(op.deltaLen))
	}
	res.set("pubsub.publish_p99_ms", nearestRank(pubMs, 99))

	setSolveCounters(res, ph.stats0, ph.stats1, n)

	rows, tblBytes := r.pub.TableMemory()
	res.set("pubsub.table_bytes_per_row", float64(tblBytes)/float64(rows))
	snap := wire.MarshalSnapshotFrame(r.prev)
	res.set("wire.snapshot_bytes", float64(len(snap)))
	res.set("wire.delta_bytes", mean(deltaBytes))
	res.set("wire.delta_ratio", mean(deltaBytes)/float64(len(snap)))
	res.set("wire.header_bytes", float64(headerBytes(r.prev)))
	res.Shape["shards"] = shardCount(r.prev)

	res.set("transport.origin_egress_bytes_per_op", float64(ph.oby)/n)
	res.set("transport.origin_egress_frames_per_op", float64(ph.ofr)/n)
	res.set("relay.egress_bytes_per_op", float64(ph.rby)/n)
	res.set("relay.deltas", float64(rs1.Deltas-rs0.Deltas))
	res.set("relay.snapshots", float64(rs1.Snapshots-rs0.Snapshots))
	res.set("relay.resets", float64(rs1.Resets))
	res.set("relay.reconnects", float64(rs1.Reconnects))

	setProcMetrics(res, ph.p0, ph.p1, n)
	r.drainCanary()

	cold, err := coldDecryptMs(r.tbl.cells(cfg.laneRows[0]), r.prev)
	if err != nil {
		return err
	}
	res.set("subscriber.cold_decrypt_ms", cold)
	if cfg.scaling {
		eff, err := r.parallelEfficiency()
		if err != nil {
			return err
		}
		res.set("core.parallel_efficiency", eff)
	}
	n0 := cfg.groupSize
	if n0 == 0 {
		n0 = cfg.rows
	}
	return kernels(newRNG(r.env.seed, "kernels"), n0, cfg.subdocBytes, res)
}

// parallelEfficiency times a full re-solve of the rig's table with one
// solve worker and with the default pool: speed-up over the cores the pool
// could use. 1 means the scheduler scales perfectly.
func (r *streamRig) parallelEfficiency() (float64, error) {
	acps, _, _, err := singleCondPolicies(r.cfg.policies)
	if err != nil {
		return 0, err
	}
	_, idKey, err := tableParams()
	if err != nil {
		return 0, err
	}
	doc, _, err := payloads(r.g, r.subdocs, r.cfg.subdocBytes)
	if err != nil {
		return 0, err
	}
	full := func(workers int) (float64, error) {
		pub, err := ppcd.NewPublisher(r.params, idKey, acps, ppcd.Options{GroupSize: r.cfg.groupSize, Workers: workers})
		if err != nil {
			return 0, err
		}
		if err := r.tbl.load(pub); err != nil {
			return 0, err
		}
		return timeMedian(5, func() error {
			pub.ResetRekeyCache()
			_, err := pub.Publish(doc)
			return err
		})
	}
	one, err := full(1)
	if err != nil {
		return 0, err
	}
	all, err := full(0)
	if err != nil {
		return 0, err
	}
	workers := runtime.GOMAXPROCS(0) // Options.Workers' default
	return one / all / float64(min(workers, runtime.NumCPU())), nil
}

// headerBytes is the paper's "ACV size": the rekey material of every
// configuration of one broadcast.
func headerBytes(b *ppcd.Broadcast) int {
	var n int
	for _, ci := range b.Configs {
		switch {
		case ci.Grouped != nil:
			n += ci.Grouped.Size()
		case ci.Header != nil:
			n += ci.Header.Size()
		}
	}
	return n
}

// shardCount is the number of ACVs one full re-solve of b takes.
func shardCount(b *ppcd.Broadcast) int {
	var n int
	for _, ci := range b.Configs {
		switch {
		case ci.Grouped != nil:
			n += len(ci.Grouped.Shards)
		case ci.Header != nil:
			n++
		}
	}
	return n
}

// coldDecryptMs times what a subscriber with no hints and no cached KEVs
// pays for its first broadcast.
func coldDecryptMs(cells map[string]core.CSS, b *ppcd.Broadcast) (float64, error) {
	var samples []float64
	for i := 0; i < 5; i++ {
		sub, err := subscriberFor("cold", cells)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := sub.ApplySnapshot(b); err != nil {
			return 0, err
		}
		if _, err := sub.Decrypt(b); err != nil {
			return 0, err
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	return median(samples), nil
}
