package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ppcd"
	"ppcd/internal/core"
)

// restartShape sizes durable-restart: publishes (each after `leaves` journaled
// revocations) between two stops.
type restartShape struct {
	rows, publishes, leaves int
}

// rlane is a subscriber that survives the publisher's restarts: it keeps its
// applied (epoch, Gen) and presents them when it reconnects.
type rlane struct {
	id     int
	sub    *ppcd.Subscriber
	expect []string
	st     *ppcd.Stream
	epoch  uint64
	gen    uint64
	rx     int64 // bytes read on streams already closed
}

type restartRig struct {
	env     *runEnv
	shape   restartShape
	g       *rng
	tbl     *table
	acps    []*ppcd.Policy
	subdocs []string
	params  *ppcd.CommitmentParams
	idKey   []byte
	dir     string
	key     [32]byte

	pub     *ppcd.Publisher
	st      *ppcd.StateStore
	srv     *ppcd.Server
	shadow  *ppcd.Publisher // traced run: the same table without a journal
	lanes   []*rlane
	leavers *pool
	cycles  int
	loadMs  float64
	last    *ppcd.Broadcast

	// Exact counters, summed over traced cycles.
	replayed, segments, cleanSolves, crashSolves int
	cleanCycles, crashCycles                     int
	snapBytes                                    int64
	dirtyRatio, recoverMBs                       []float64
}

func (r *restartRig) newPublisher() (*ppcd.Publisher, error) {
	return ppcd.NewPublisher(r.params, r.idKey, r.acps, ppcd.Options{GroupSize: 128})
}

func newRestartRig(env *runEnv, shape restartShape, rep int) (_ *restartRig, err error) {
	r := &restartRig{env: env, shape: shape, g: newRNG(env.seed, fmt.Sprintf("durable-restart/%d", rep))}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	var conds []string
	if r.acps, conds, r.subdocs, err = singleCondPolicies(1); err != nil {
		return nil, err
	}
	if r.params, r.idKey, err = tableParams(); err != nil {
		return nil, err
	}
	r.dir = filepath.Join(env.outDir, fmt.Sprintf("store-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(r.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	copy(r.key[:], r.g.bytes(len(r.key)))
	if r.pub, err = r.newPublisher(); err != nil {
		return nil, err
	}
	if r.st, err = ppcd.OpenStore(r.dir, r.key); err != nil {
		return nil, err
	}
	if _, err := r.st.Recover(r.pub); err != nil {
		return nil, err
	}
	r.pub.SetJournal(r.st)
	r.tbl = newTable(r.g, shape.rows, conds, func(int, int) bool { return true })
	t0 := time.Now()
	if err := r.tbl.load(r.pub); err != nil {
		return nil, err
	}
	r.loadMs = ms(time.Since(t0))
	if env.tr != nil {
		if r.shadow, err = r.newPublisher(); err != nil {
			return nil, err
		}
		if err := r.tbl.load(r.shadow); err != nil {
			return nil, err
		}
	}
	laneRows := []int{0, 1, 2, 3}
	r.leavers = newPool(r.g, 0, shape.rows, 1, 0, laneRows)
	// The bulk load bypasses the journal; the first snapshot makes it
	// durable.
	if err := r.st.Snapshot(r.pub); err != nil {
		return nil, err
	}
	if r.srv, err = ppcd.NewServer(r.pub); err != nil {
		return nil, err
	}
	r.srv.SetHeartbeatInterval(0)
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	plain, err := r.publish() // cold solve
	if err != nil {
		return nil, err
	}
	for l := 0; l < env.s; l++ {
		row := laneRows[l%len(laneRows)]
		sub, err := subscriberFor(rowNym(row), r.tbl.cells(row))
		if err != nil {
			return nil, err
		}
		r.lanes = append(r.lanes, &rlane{id: l, sub: sub, expect: r.subdocs})
	}
	if err := r.eachLane(func(ln *rlane) error {
		if err := ln.connect(r, addr); err != nil {
			return err
		}
		_, err := ln.consume(r, plain, nil, 0)
		return err
	}); err != nil {
		return nil, err
	}
	// One clean and one crash cycle before measuring: the first snapshot
	// after the load is a full one and the first recovery faults the files
	// in.
	for i := 0; i < 2; i++ {
		if _, err := r.cycle(false); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *restartRig) close() {
	for _, ln := range r.lanes {
		if ln.st != nil {
			ln.st.Close()
		}
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.st != nil {
		r.st.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

func (r *restartRig) eachLane(fn func(*rlane) error) error {
	errs := make([]error, len(r.lanes))
	var wg sync.WaitGroup
	for i, ln := range r.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(ln)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// publish publishes a fresh document on the current incarnation and fans it
// out; it returns the plaintext the lanes must end up with.
func (r *restartRig) publish() (map[string][]byte, error) {
	doc, plain, err := payloads(r.g, r.subdocs, 1024)
	if err != nil {
		return nil, err
	}
	b, err := r.pub.Publish(doc)
	if err != nil {
		return nil, err
	}
	if err := r.srv.PublishBroadcast(b); err != nil {
		return nil, err
	}
	r.last = b
	return plain, nil
}

func (ln *rlane) connect(r *restartRig, addr string) error {
	cl, err := ppcd.Dial(addr, r.params)
	if err != nil {
		return err
	}
	defer cl.Close()
	ln.st, err = cl.Subscribe(docName, ln.epoch, ln.gen)
	return err
}

func (ln *rlane) disconnect() {
	ln.rx += ln.st.BytesRead()
	ln.st.Close()
	ln.st = nil
}

func (ln *rlane) bytesRead() int64 {
	if ln.st == nil {
		return ln.rx
	}
	return ln.rx + ln.st.BytesRead()
}

// consume reads the next data frame, applies it, decrypts and verifies the
// plaintext. It returns when the lane held the verified plaintext.
func (ln *rlane) consume(r *restartRig, want map[string][]byte, tr *tracer, op int) (time.Time, error) {
	orc := r.env.orc
	t0 := time.Now()
	var f *ppcd.StreamFrame
	for {
		if err := ln.st.SetReadDeadline(time.Now().Add(opTimeout)); err != nil {
			return t0, err
		}
		var err error
		if f, err = ln.st.Next(); err != nil {
			orc.fail("lane %d: stream: %v", ln.id, err)
			return t0, err
		}
		if f.Type != ppcd.FrameHeartbeat {
			break
		}
	}
	recv := time.Now()
	tr.add(op, ln.id, "transport.catchup", "", t0, recv)
	var gen uint64
	var err error
	switch f.Type {
	case ppcd.FrameSnapshot:
		gen = f.Snapshot.Gen
		err = ln.sub.ApplySnapshot(f.Snapshot)
	case ppcd.FrameDelta:
		gen = f.Delta.Gen
		err = ln.sub.ApplyDelta(f.Delta)
	}
	applied := time.Now()
	tr.add(op, ln.id, "subscriber.apply", "", recv, applied)
	if err != nil {
		orc.fail("lane %d: applying epoch %d: %v", ln.id, f.Epoch, err)
		return t0, err
	}
	got, err := ln.sub.DecryptCurrent(docName)
	decrypted := time.Now()
	tr.add(op, ln.id, "subscriber.decrypt", "", applied, decrypted)
	if err != nil {
		orc.fail("lane %d: decrypting epoch %d: %v", ln.id, f.Epoch, err)
		return t0, err
	}
	orc.check(f.Epoch > ln.epoch, "lane %d: epoch %d after %d", ln.id, f.Epoch, ln.epoch)
	// Gen must survive the restart: that is what lets a reconnecting
	// subscriber be served a delta.
	orc.check(ln.gen == 0 || gen == ln.gen, "lane %d: generation changed at epoch %d", ln.id, f.Epoch)
	ln.epoch, ln.gen = f.Epoch, gen
	verifyPlain(orc, ln.id, ln.expect, nil, want, got, f.Epoch)
	end := time.Now()
	tr.add(op, ln.id, "oracle.verify", "", decrypted, end)
	return end, nil
}

// cycle is one op: churn under the journal, stop (clean on even cycles,
// crash on odd ones), start a new incarnation from the store, and bring
// every lane back to a verified plaintext. The returned latencies run from
// the stop to each lane's plaintext.
func (r *restartRig) cycle(traced bool) ([]float64, error) {
	env, orc := r.env, r.env.orc
	var tr *tracer
	if traced {
		tr = env.tr
	}
	op := r.cycles
	clean := r.cycles%2 == 0
	r.cycles++

	var canary map[string]core.CSS
	for p := 0; p < r.shape.publishes; p++ {
		for k := 0; k < r.shape.leaves; k++ {
			row, err := r.leavers.take()
			if err != nil {
				return nil, err
			}
			if canary == nil {
				canary = r.tbl.cells(row)
			}
			t0 := time.Now()
			if err := r.pub.RevokeSubscription(rowNym(row)); err != nil {
				return nil, err
			}
			tr.add(op, publisherLane, "store.journaled_revoke", "", t0, time.Now())
			if tr != nil {
				t0 = time.Now()
				if err := r.shadow.RevokeSubscription(rowNym(row)); err != nil {
					return nil, err
				}
				tr.add(op, publisherLane, "pubsub.mutate", "", t0, time.Now())
			}
		}
		plain, err := r.publish()
		if err != nil {
			return nil, err
		}
		if err := r.eachLane(func(ln *rlane) error {
			_, err := ln.consume(r, plain, nil, 0)
			return err
		}); err != nil {
			return nil, err
		}
	}
	gen := r.pub.Generation()

	// Stop.
	stop := time.Now()
	at := stop
	mark := func(name string) time.Duration {
		now := time.Now()
		tr.add(op, publisherLane, name, "", at, now)
		d := now.Sub(at)
		at = now
		return d
	}
	if clean {
		if err := r.st.Snapshot(r.pub); err != nil {
			return nil, err
		}
		mark("store.snapshot")
		if traced {
			ss := r.st.LastSnapshotStats()
			r.snapBytes += ss.BytesWritten
			if ss.TotalSegments > 0 {
				r.dirtyRatio = append(r.dirtyRatio, float64(ss.DirtySegments)/float64(ss.TotalSegments))
			}
		}
	}
	if err := r.st.Close(); err != nil {
		return nil, err
	}
	mark("store.close")
	for _, ln := range r.lanes {
		ln.disconnect()
	}
	r.srv.Close()
	mark("transport.close")

	// Start.
	var err error
	if r.pub, err = r.newPublisher(); err != nil {
		return nil, err
	}
	mark("pubsub.new")
	if r.st, err = ppcd.OpenStore(r.dir, r.key); err != nil {
		return nil, err
	}
	mark("store.open")
	rec, err := r.st.Recover(r.pub)
	if err != nil {
		return nil, err
	}
	recovery := mark("store.recover")
	r.pub.SetJournal(r.st)
	if r.srv, err = ppcd.NewServer(r.pub); err != nil {
		return nil, err
	}
	r.srv.SetHeartbeatInterval(0)
	for _, b := range r.pub.LastBroadcasts() {
		if err := r.srv.PublishBroadcast(b); err != nil {
			return nil, err
		}
	}
	mark("fanout.reseed")
	s0 := r.pub.Stats()
	doc, plain, err := payloads(r.g, r.subdocs, 1024)
	if err != nil {
		return nil, err
	}
	b, err := r.pub.Publish(doc)
	if err != nil {
		return nil, err
	}
	mark("pubsub.publish")
	solves := int(r.pub.Stats().Solves - s0.Solves)
	if err := r.srv.PublishBroadcast(b); err != nil {
		return nil, err
	}
	r.last = b
	mark("fanout.publish")
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mark("transport.listen")
	listening := at

	orc.check(rec.Restored, "cycle %d: recovery restored nothing", op)
	orc.check(b.Gen == gen, "cycle %d: generation not preserved across the restart", op)
	if clean {
		orc.check(solves == 0, "cycle %d: %d solves on the first publish after a clean stop", op, solves)
		orc.check(rec.Replayed == 0, "cycle %d: clean stop replayed %d WAL events", op, rec.Replayed)
	}
	if traced {
		r.replayed += rec.Replayed
		r.segments = rec.Segments
		if clean {
			r.cleanCycles++
			r.cleanSolves += solves
		} else {
			r.crashCycles++
			r.crashSolves += solves
		}
		r.recoverMBs = append(r.recoverMBs, float64(rec.SnapshotBytes)/(1<<20)/recovery.Seconds())
	}

	lat := make([]float64, len(r.lanes))
	if err := r.eachLane(func(ln *rlane) error {
		if err := ln.connect(r, addr); err != nil {
			return err
		}
		tr.add(op, ln.id, "transport.reconnect", "", listening, time.Now())
		end, err := ln.consume(r, plain, tr, op)
		lat[ln.id] = ms(end.Sub(stop))
		return err
	}); err != nil {
		return nil, err
	}
	checkCanary(env, canary, r.tbl.cells(0), r.lanes[0].sub.Current(docName), b.Epoch)
	return lat, nil
}

var restartChain = []string{
	"store.snapshot", "store.close", "transport.close", "pubsub.new", "store.open", "store.recover",
	"fanout.reseed", "pubsub.publish", "fanout.publish", "transport.listen",
	"transport.reconnect", "transport.catchup", "subscriber.apply", "subscriber.decrypt", "oracle.verify",
}

func dirBytes(dir string) int64 {
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
	}
	return total
}

func runDurableRestart(env *runEnv, res *result) error {
	shape := restartShape{rows: 50_000, publishes: 4, leaves: 8}
	if env.toy {
		shape.rows = 2_000
	}
	rig, err := repeatSetup(env, res, func(rep int) (*restartRig, error) { return newRestartRig(env, shape, rep) })
	if err != nil {
		return err
	}
	defer rig.close()
	res.Shape = map[string]any{
		"rows": shape.rows, "policies": 1, "fill": []float64{1}, "conds": 1, "group_size": 128,
		"subdoc_bytes": 1024, "publishes_per_cycle": shape.publishes, "leaves_per_publish": shape.leaves,
		"clean_cycles": "even", "crash_cycles": "odd", "relay": false,
	}

	total := time.Duration(env.seconds * float64(time.Second))
	rxOf := func() (rx int64) {
		for _, ln := range rig.lanes {
			rx += ln.bytesRead()
		}
		return rx
	}
	// pairs runs whole clean+crash pairs for d: a run always holds as many
	// clean cycles as crash cycles, whatever the host's speed.
	pairs := func(d time.Duration, traced bool) (lat []float64, cycles int, err error) {
		end := time.Now().Add(d)
		for time.Now().Before(end) || cycles%2 == 1 || (env.toy && cycles < 2) {
			l, err := rig.cycle(traced)
			if err != nil {
				return nil, 0, err
			}
			lat = append(lat, l...)
			cycles++
		}
		return lat, cycles, nil
	}

	if env.tr == nil {
		rx0 := rxOf()
		var slices []slice
		for i := 0; i < sliceCount; i++ {
			p0 := readProc()
			lat, cycles, err := pairs(total/sliceCount, false)
			if err != nil {
				return err
			}
			p1 := readProc()
			slices = append(slices, slice{lat: lat, ops: cycles, seconds: p1.at.Sub(p0.at).Seconds(), cpu: p1.cpu - p0.cpu, heapMB: heapLiveMB()})
		}
		return reduceEndToEnd(res, slices, nil, float64(rxOf()-rx0)/float64(len(rig.lanes)))
	}

	// The traced run starts with untraced cycles, for the overhead ratio.
	plainLat, _, err := pairs(total*3/10, false)
	if err != nil {
		return err
	}
	p0 := readProc()
	lat, cycles, err := pairs(total*7/10, true)
	if err != nil {
		return err
	}
	p1 := readProc()
	n := float64(cycles)
	res.Ops, res.MeasuredSeconds = cycles, p1.at.Sub(p0.at).Seconds()

	p50 := median(lat)
	res.Samples = map[string]int{"e2e_traced": len(lat), "ops_traced": cycles}
	res.set("proc.e2e_p50_traced_ms", p50)
	res.set("proc.e2e_p90_ms", nearestRank(lat, 90))
	res.set("proc.e2e_p99_ms", nearestRank(lat, 99))
	if base := median(plainLat); base > 0 {
		res.set("proc.trace_overhead_ratio", p50/base)
	}
	layers := env.tr.layers()
	setChain(res, layers, restartChain, p50)
	for metric, spanName := range map[string]string{
		"pubsub.mutate_ms":      "pubsub.mutate",
		"pubsub.publish_ms":     "pubsub.publish",
		"fanout.publish_ms":     "fanout.publish",
		"store.snapshot_ms":     "store.snapshot",
		"store.close_ms":        "store.close",
		"store.open_ms":         "store.open",
		"store.recover_ms":      "store.recover",
		"subscriber.apply_ms":   "subscriber.apply",
		"subscriber.decrypt_ms": "subscriber.decrypt",
	} {
		res.set(metric, layers[spanName].call)
	}
	res.set("pubsub.load_ms", rig.loadMs)
	res.set("store.commit_ms", layers["store.journaled_revoke"].call-layers["pubsub.mutate"].call)
	res.set("store.snapshot_bytes_written", float64(rig.snapBytes)/float64(max(rig.cleanCycles, 1)))
	res.set("store.dirty_segment_ratio", mean(rig.dirtyRatio))
	res.set("store.recover_mb_per_s", median(rig.recoverMBs))
	res.set("store.wal_replayed_per_op", float64(rig.replayed)/n)
	res.set("store.recovered_segments", float64(rig.segments))
	res.set("store.post_restart_solves", float64(rig.cleanSolves)/float64(max(rig.cleanCycles, 1)))
	res.set("store.disk_bytes", float64(dirBytes(rig.dir)))
	// Publish counters restart with each incarnation; the exact figure that
	// survives is the crash cycles' re-solve count.
	res.set("core.solves_per_op", float64(rig.crashSolves)/float64(max(rig.crashCycles, 1)))
	rows, tblBytes := rig.pub.TableMemory()
	res.set("pubsub.table_bytes_per_row", float64(tblBytes)/float64(rows))
	res.set("wire.header_bytes", float64(headerBytes(rig.last)))
	setProcMetrics(res, p0, p1, n)
	cold, err := coldDecryptMs(rig.tbl.cells(0), rig.last)
	if err != nil {
		return err
	}
	res.set("subscriber.cold_decrypt_ms", cold)
	return kernels(newRNG(env.seed, "kernels"), 128, 1024, res)
}
