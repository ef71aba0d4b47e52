package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ppcd"
	"ppcd/internal/core"
	"ppcd/internal/g2"
	"ppcd/internal/idtoken"
	"ppcd/internal/ocbe"
	"ppcd/internal/pubsub"
)

// The onboard workload's policies: two equality and two inequality
// conditions, each guarding its own subdocument. Every joiner holds a token
// per attribute and registers for all four (uniform registration); odd
// joiners hold level 40 and must not obtain sd2.
var onboardPolicies = []struct{ id, cond, subdoc string }{
	{"acp0", "role = nurse", "sd0"},
	{"acp1", "ward = 12", "sd1"},
	{"acp2", "level >= 50", "sd2"},
	{"acp3", "age >= 18", "sd3"},
}

const (
	onboardEll      = 20
	onboardWarmJoin = 2 // per client
)

// onboardPreload is the size of table T before the first join. The origin's
// and the relay's retention rings hold the last snapshot frames in buffers
// whose capacity doubles as the frame grows (near 2 300 and 4 600 rows at
// this shape), and the live heap steps by 4 MB when it does: a run starts
// well past one doubling and ends far short of the next, so every heap
// reading of a run lies on the same step.
func onboardPreload(env *runEnv) int {
	if env.toy {
		return 200
	}
	return 2500
}

// countingProxy forwards TCP connections to upstream and counts the bytes
// flowing back: what a joiner reads off its socket for registration and
// fetch replies, which the client itself does not expose.
type countingProxy struct {
	ln       net.Listener
	upstream string
	toClient atomic.Int64
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

func newCountingProxy(upstream string) (*countingProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &countingProxy{ln: ln, upstream: upstream}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

func (p *countingProxy) addr() string { return p.ln.Addr().String() }

func (p *countingProxy) accept() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.upstream)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, down, up)
		p.mu.Unlock()
		p.wg.Add(2)
		go func() {
			defer p.wg.Done()
			io.Copy(up, down)
			up.Close()
		}()
		go func() {
			defer p.wg.Done()
			io.Copy(countWriter{down, &p.toClient}, up)
			down.Close()
		}()
	}
}

func (p *countingProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

type countWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n.Add(int64(n))
	return n, err
}

type onboardRig struct {
	env    *runEnv
	params *ppcd.CommitmentParams
	idmgr  *ppcd.IdentityManager
	acps   []*ppcd.Policy
	pub    *ppcd.Publisher
	srv    *ppcd.Server
	relay  *ppcd.Relay
	proxy  *countingProxy
	cls    []*ppcd.Client
	opSeq  atomic.Int64

	// pubMu serialises the origin's publishes: joiners share one publisher.
	pubMu   sync.Mutex
	g       *rng
	subdocs []string
	plains  map[uint64]map[string][]byte
	last    *ppcd.Broadcast
}

var (
	paperOnce   sync.Once
	paperParams *ppcd.CommitmentParams
	paperErr    error
)

func newOnboardRig(env *runEnv, rep int) (_ *onboardRig, err error) {
	r := &onboardRig{env: env, g: newRNG(env.seed, fmt.Sprintf("onboard/%d", rep)), plains: make(map[uint64]map[string][]byte)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	// The curve's constants are process-wide; the rest of the set-up is
	// rebuilt per rig.
	paperOnce.Do(func() { paperParams, paperErr = ppcd.Setup(ppcd.PaperCurve(), []byte("ppcd-bench-e2e")) })
	if paperErr != nil {
		return nil, paperErr
	}
	r.params = paperParams
	if r.idmgr, err = ppcd.NewIdentityManager(r.params); err != nil {
		return nil, err
	}
	for _, p := range onboardPolicies {
		acp, err := ppcd.NewPolicy(p.id, p.cond, docName, p.subdoc)
		if err != nil {
			return nil, err
		}
		r.acps = append(r.acps, acp)
		r.subdocs = append(r.subdocs, p.subdoc)
	}
	opts := ppcd.Options{Ell: onboardEll, GroupSize: 128}
	if r.pub, err = ppcd.NewPublisher(r.params, r.idmgr.PublicKey(), r.acps, opts); err != nil {
		return nil, err
	}
	// Joins land in a table that already has full shards: without the
	// preload every op would re-solve a shard one row larger than the last
	// and the run would never reach a steady state.
	for i := 0; i < onboardPreload(env); i++ {
		cells := make(map[string]core.CSS, len(r.acps))
		for _, c := range r.pub.Conditions() {
			cells[c.ID()] = r.g.css()
		}
		if err := registerRow(r.pub, rowNym(i), cells); err != nil {
			return nil, err
		}
	}
	if r.srv, err = ppcd.NewServer(r.pub); err != nil {
		return nil, err
	}
	r.srv.SetHeartbeatInterval(0)
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if r.relay, err = ppcd.NewRelay(addr, r.params, &ppcd.RelayOptions{Heartbeat: -1, ReconnectDelay: 100 * time.Millisecond}); err != nil {
		return nil, err
	}
	if addr, err = r.relay.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if r.proxy, err = newCountingProxy(addr); err != nil {
		return nil, err
	}
	if _, _, err := r.publish(); err != nil { // cold solve of the preloaded table
		return nil, err
	}
	for c := 0; c < env.s; c++ {
		cl, err := ppcd.Dial(r.proxy.addr(), r.params)
		if err != nil {
			return nil, err
		}
		r.cls = append(r.cls, cl)
	}
	for i := 0; i < onboardWarmJoin; i++ {
		for c := range r.cls {
			if _, err := r.join(c, nil); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

func (r *onboardRig) close() {
	for _, cl := range r.cls {
		cl.Close()
	}
	if r.proxy != nil {
		r.proxy.close()
	}
	if r.relay != nil {
		r.relay.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
}

// publish is the origin's half of an op: a fresh document, Publish,
// PublishBroadcast. It returns the epoch and when each step ended.
func (r *onboardRig) publish() (epoch uint64, at [3]time.Time, err error) {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	at[0] = time.Now()
	doc, plain, err := payloads(r.g, r.subdocs, 1024)
	if err != nil {
		return 0, at, err
	}
	b, err := r.pub.Publish(doc)
	if err != nil {
		return 0, at, err
	}
	at[1] = time.Now()
	r.plains[b.Epoch] = plain
	delete(r.plains, b.Epoch-64)
	if err := r.srv.PublishBroadcast(b); err != nil {
		return 0, at, err
	}
	r.last = b
	at[2] = time.Now()
	return b.Epoch, at, nil
}

func (r *onboardRig) plainOf(epoch uint64) map[string][]byte {
	r.pubMu.Lock()
	defer r.pubMu.Unlock()
	return r.plains[epoch]
}

// joinRec is one completed op.
type joinRec struct {
	latency float64
	reqs    []*pubsub.RegistrationRequest // traced ops keep theirs for the kernels
}

// join takes one new subscriber from identity tokens to verified plaintext
// through client c. With a tracer it runs RegisterAll's steps itself —
// Prepare, the batch RPC, Open — so each gets a span.
func (r *onboardRig) join(c int, tr *tracer) (*joinRec, error) {
	orc := r.env.orc
	op := int(r.opSeq.Add(1))
	nym := fmt.Sprintf("join-%d", op)
	// Odd joiners miss the level threshold — unless the self-test's fault
	// hands them a passing value while the oracle still expects a miss.
	level, denied := "60", op%2 == 1
	if denied && !r.env.fault {
		level = "40"
	}
	values := map[string]string{"role": "nurse", "ward": "12", "level": level, "age": "30"}
	cl := r.cls[c]

	start := time.Now()
	sub, err := ppcd.NewSubscriber(nym)
	if err != nil {
		return nil, err
	}
	type held struct {
		tok *ppcd.Token
		sec *ppcd.TokenSecret
	}
	tokens := make(map[string]held, len(values))
	for _, p := range r.acps {
		tag := p.Conds[0].Attr
		tok, sec, err := r.idmgr.IssueString(nym, tag, values[tag])
		if err != nil {
			return nil, err
		}
		if err := sub.AddToken(tok, sec); err != nil {
			return nil, err
		}
		tokens[tag] = held{tok, sec}
	}
	issued := time.Now()
	tr.add(op, c, "idtoken.issue", "", start, issued)

	rec := &joinRec{}
	if tr == nil {
		n, err := sub.RegisterAll(cl)
		if err != nil {
			return nil, fmt.Errorf("registering %s: %w", nym, err)
		}
		want := len(r.acps)
		if denied {
			want--
		}
		if !r.env.fault {
			orc.check(n == want, "%s extracted %d CSSs, want %d", nym, n, want)
		}
	} else {
		conds := cl.Conditions()
		ell := cl.Ell()
		type prep struct {
			recv *ocbe.Receiver
			wit  *ocbe.Witness
			kind string
		}
		preps := make([]prep, len(conds))
		for i, cond := range conds {
			h := tokens[cond.Attr]
			kind := "ge"
			if cond.Op == ocbe.EQ {
				kind = "eq"
			}
			t0 := time.Now()
			recv := ocbe.NewReceiver(r.params, h.sec.Value, h.sec.Blinding)
			pred := ocbe.Predicate{Op: cond.Op, X0: idtoken.EncodeValue(r.params.Order(), cond.Value)}
			wit, req, err := recv.Prepare(pred, ell)
			if err != nil {
				return nil, err
			}
			tr.add(op, c, "ocbe.prepare_"+kind, "", t0, time.Now())
			preps[i] = prep{recv, wit, kind}
			rec.reqs = append(rec.reqs, &pubsub.RegistrationRequest{Token: h.tok, CondID: cond.ID(), OCBE: req})
		}
		t0 := time.Now()
		results, err := cl.RegisterBatch(rec.reqs)
		if err != nil {
			return nil, fmt.Errorf("registering %s: %w", nym, err)
		}
		tr.add(op, c, "transport.register", "", t0, time.Now())
		cells := make(map[string]core.CSS)
		for i, res := range results {
			if res.Err != "" {
				return nil, fmt.Errorf("registering %s for %q: %s", nym, res.CondID, res.Err)
			}
			t0 := time.Now()
			payload, err := preps[i].recv.Open(res.Envelope, preps[i].wit)
			tr.add(op, c, "ocbe.open_"+preps[i].kind, "", t0, time.Now())
			if err != nil {
				continue // condition not satisfied
			}
			css, err := core.CSSFromBytes(payload)
			if err != nil {
				return nil, err
			}
			cells[res.CondID] = css
		}
		if sub, err = subscriberFor(nym, cells); err != nil {
			return nil, err
		}
	}
	registered := time.Now()

	epoch, at, err := r.publish()
	if err != nil {
		return nil, err
	}
	tr.add(op, c, "pubsub.publish_queue", "", registered, at[0])
	tr.add(op, c, "pubsub.publish", "", at[0], at[1])
	tr.add(op, c, "fanout.publish", "", at[1], at[2])
	deadline := at[2].Add(opTimeout)
	for r.relay.LastEpoch() < epoch {
		if time.Now().After(deadline) {
			orc.fail("%s: relay stuck at epoch %d, want %d", nym, r.relay.LastEpoch(), epoch)
			return nil, fmt.Errorf("bench: relay did not reach epoch %d", epoch)
		}
		time.Sleep(100 * time.Microsecond)
	}
	relayed := time.Now()
	tr.add(op, c, "relay.hop", "", at[2], relayed)
	b, err := cl.Fetch(docName)
	if err != nil {
		return nil, fmt.Errorf("fetching for %s: %w", nym, err)
	}
	fetched := time.Now()
	tr.add(op, c, "transport.fetch", "", relayed, fetched)
	got, err := sub.Decrypt(b)
	if err != nil {
		return nil, err
	}
	decrypted := time.Now()
	tr.add(op, c, "subscriber.cold_decrypt", "", fetched, decrypted)

	orc.check(b.Epoch >= epoch, "%s: fetched epoch %d, published %d", nym, b.Epoch, epoch)
	want := r.plainOf(b.Epoch)
	for _, p := range onboardPolicies {
		if p.subdoc == "sd2" && denied {
			_, leaked := got[p.subdoc]
			orc.check(!leaked, "%s holds level 40 and obtained %s", nym, p.subdoc)
			continue
		}
		orc.check(want != nil && bytes.Equal(got[p.subdoc], want[p.subdoc]), "%s: epoch %d: plaintext of %s differs", nym, b.Epoch, p.subdoc)
	}
	end := time.Now()
	tr.add(op, c, "oracle.verify", "", decrypted, end)
	rec.latency = ms(end.Sub(start))
	return rec, nil
}

// runClients drives every client closed loop for d and returns the ops each
// completed.
func (r *onboardRig) runClients(d time.Duration, tr *tracer) ([]*joinRec, error) {
	end := time.Now().Add(d)
	recs := make([][]*joinRec, len(r.cls))
	errs := make([]error, len(r.cls))
	var wg sync.WaitGroup
	for c := range r.cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) || (r.env.toy && len(recs[c]) < 1) {
				rec, err := r.join(c, tr)
				if err != nil {
					errs[c] = err
					return
				}
				recs[c] = append(recs[c], rec)
			}
		}()
	}
	wg.Wait()
	var all []*joinRec
	for c := range recs {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all = append(all, recs[c]...)
	}
	return all, nil
}

func latenciesOf(recs []*joinRec) []float64 {
	out := make([]float64, len(recs))
	for i, rec := range recs {
		out[i] = rec.latency
	}
	return out
}

var onboardChain = []string{
	"idtoken.issue", "ocbe.prepare_eq", "ocbe.prepare_ge", "transport.register",
	"ocbe.open_eq", "ocbe.open_ge", "pubsub.publish_queue", "pubsub.publish",
	"fanout.publish", "relay.hop", "transport.fetch", "subscriber.cold_decrypt", "oracle.verify",
}

func runOnboard(env *runEnv, res *result) error {
	rig, err := repeatSetup(env, res, func(rep int) (*onboardRig, error) { return newOnboardRig(env, rep) })
	if err != nil {
		return err
	}
	defer rig.close()
	res.Shape = map[string]any{
		"preloaded_rows": onboardPreload(env), "policies": len(onboardPolicies), "conds": 1,
		"eq_conditions": 2, "ge_conditions": 2, "ell": onboardEll, "group": "jacobian (paper curve)",
		"group_size": 128, "subdoc_bytes": 1024, "denied_share": 0.5, "warm_joins": onboardWarmJoin * env.s,
	}
	total := time.Duration(env.seconds * float64(time.Second))

	if env.tr == nil {
		rx0 := rig.proxy.toClient.Load()
		var slices []slice
		for i := 0; i < sliceCount; i++ {
			p0 := readProc()
			recs, err := rig.runClients(total/sliceCount, nil)
			if err != nil {
				return err
			}
			p1 := readProc()
			slices = append(slices, slice{lat: latenciesOf(recs), ops: len(recs), seconds: p1.at.Sub(p0.at).Seconds(), cpu: p1.cpu - p0.cpu, heapMB: heapLiveMB()})
		}
		return reduceEndToEnd(res, slices, nil, float64(rig.proxy.toClient.Load()-rx0))
	}

	plainDur := total * 3 / 10
	plain, err := rig.runClients(plainDur, nil)
	if err != nil {
		return err
	}
	p0, st0 := readProc(), rig.pub.Stats()
	recs, err := rig.runClients(total-plainDur, env.tr)
	if err != nil {
		return err
	}
	p1, st1 := readProc(), rig.pub.Stats()
	n := float64(len(recs))
	res.Ops, res.MeasuredSeconds = len(recs), p1.at.Sub(p0.at).Seconds()+plainDur.Seconds()
	lat := latenciesOf(recs)
	p50 := median(lat)
	res.Samples = map[string]int{"e2e_traced": len(lat), "ops_traced": len(recs)}
	res.set("proc.e2e_p50_traced_ms", p50)
	res.set("proc.e2e_p90_ms", nearestRank(lat, 90))
	res.set("proc.e2e_p99_ms", nearestRank(lat, 99))
	if base := median(latenciesOf(plain)); base > 0 {
		res.set("proc.trace_overhead_ratio", p50/base)
	}
	layers := env.tr.layers()
	setChain(res, layers, onboardChain, p50)
	for metric, spanName := range map[string]string{
		"ocbe.prepare_eq_ms":         "ocbe.prepare_eq",
		"ocbe.prepare_ge_ms":         "ocbe.prepare_ge",
		"ocbe.open_eq_ms":            "ocbe.open_eq",
		"ocbe.open_ge_ms":            "ocbe.open_ge",
		"pubsub.publish_ms":          "pubsub.publish",
		"fanout.publish_ms":          "fanout.publish",
		"relay.hop_ms":               "relay.hop",
		"transport.fetch_ms":         "transport.fetch",
		"subscriber.cold_decrypt_ms": "subscriber.cold_decrypt",
	} {
		res.set(metric, layers[spanName].call)
	}
	// IssueString is called once per token; the span covers all four.
	res.set("idtoken.issue_ms", layers["idtoken.issue"].call/float64(len(onboardPolicies)))
	setSolveCounters(res, st0, st1, n)
	rows, tblBytes := rig.pub.TableMemory()
	res.set("pubsub.table_bytes_per_row", float64(tblBytes)/float64(rows))
	res.set("wire.header_bytes", float64(headerBytes(rig.last)))
	rs := rig.relay.Stats()
	res.set("relay.deltas", float64(rs.Deltas))
	res.set("relay.snapshots", float64(rs.Snapshots))
	res.set("relay.resets", float64(rs.Resets))
	res.set("relay.reconnects", float64(rs.Reconnects))
	setProcMetrics(res, p0, p1, n)

	if err := rig.registrationKernels(recs, res); err != nil {
		return err
	}
	res.set("transport.register_rtt_ms", layers["transport.register"].call-res.vals["pubsub.register_batch_ms"])
	return kernels(newRNG(env.seed, "kernels"), 128, 1024, res)
}

// registrationKernels replays the last traced ops' registration requests
// against the sender-side layers directly, after the measured phase: the
// in-process batch registration on a shadow publisher (so the real table T
// keeps the CSSs the joiners hold), single-envelope composition per
// predicate kind, and token verification.
func (r *onboardRig) registrationKernels(recs []*joinRec, res *result) error {
	shadow, err := ppcd.NewPublisher(r.params, r.idmgr.PublicKey(), r.acps, ppcd.Options{Ell: onboardEll, GroupSize: 128})
	if err != nil {
		return err
	}
	if len(recs) > 8 {
		recs = recs[len(recs)-8:]
	}
	preds := make(map[string]ocbe.Predicate)
	for _, c := range r.pub.Conditions() {
		preds[c.ID()] = ocbe.Predicate{Op: c.Op, X0: idtoken.EncodeValue(r.params.Order(), c.Value)}
	}
	var batch, eq, ge, verify []float64
	var envs int
	lanes0, inv0 := g2.LaneStats()
	for _, rec := range recs {
		t0 := time.Now()
		results, err := shadow.RegisterBatch(rec.reqs)
		if err != nil {
			return err
		}
		batch = append(batch, ms(time.Since(t0)))
		envs += len(results)
	}
	lanes1, inv1 := g2.LaneStats()
	msg := make([]byte, 8)
	for _, rec := range recs {
		for _, req := range rec.reqs {
			t0 := time.Now()
			if _, err := ocbe.Compose(r.params, preds[req.CondID], onboardEll, req.OCBE, msg); err != nil {
				return err
			}
			d := ms(time.Since(t0))
			if preds[req.CondID].Op == ocbe.EQ {
				eq = append(eq, d)
			} else {
				ge = append(ge, d)
			}
		}
		t0 := time.Now()
		if err := idtoken.Verify(r.params, r.idmgr.PublicKey(), rec.reqs[0].Token); err != nil {
			return err
		}
		verify = append(verify, ms(time.Since(t0)))
	}
	res.set("pubsub.register_batch_ms", median(batch))
	res.set("ocbe.compose_eq_ms", median(eq))
	res.set("ocbe.compose_ge_ms", median(ge))
	res.set("idtoken.verify_ms", median(verify))
	if envs > 0 {
		res.set("g2.lanes_per_env", float64(lanes1-lanes0)/float64(envs))
		res.set("g2.batch_inversions_per_env", float64(inv1-inv0)/float64(envs))
	}
	return nil
}
