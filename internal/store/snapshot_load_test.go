package store

import (
	"fmt"
	"maps"
	"math/big"
	"sync"
	"testing"
	"time"

	"ppcd/internal/codec"
	"ppcd/internal/core"
	"ppcd/internal/pubsub"
)

// TestSnapshotUnderLoad runs registrations, revocations and publishes while
// snapshots are taken back to back, then kills the store without a final
// snapshot: the recovered publisher must hold exactly the live publisher's
// pseudonyms, cells and epoch. Nothing outside the journal orders the
// mutations, so every commit admitted during a snapshot's drain or export
// has to be replayed from the log. A deadlock between the publish lock, the
// table lock and the flusher fails the test at its deadline instead of
// hanging it.
func TestSnapshotUnderLoad(t *testing.T) {
	const preloaded, joiners, groupSize = 24, 6, 4
	ts := newTestSystem(t, groupSize)
	dir := t.TempDir()
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetSegmentSlots(4)
	if _, err := st.Recover(ts.pub); err != nil {
		t.Fatal(err)
	}
	loadRows(t, ts.pub, preloaded)
	ts.pub.SetJournal(st)
	if _, err := ts.pub.Publish(ts.doc); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(ts.pub); err != nil {
		t.Fatal(err)
	}
	subs := make([]*pubsub.Subscriber, joiners)
	for i := range subs {
		subs[i] = newSubscriber(t, ts, fmt.Sprintf("pn-join-%d", i))
	}

	// Publishes and snapshots run back to back until the mutations are done.
	stop := make(chan struct{})
	var mutators, loops sync.WaitGroup
	run := func(wg *sync.WaitGroup, f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var snapshots, publishes int
	run(&loops, func() {
		for ; !stopped(); publishes++ {
			if _, err := ts.pub.Publish(ts.doc); err != nil {
				t.Error(err)
				return
			}
		}
	})
	run(&loops, func() {
		for ; !stopped(); snapshots++ {
			if err := st.Snapshot(ts.pub); err != nil {
				t.Error(err)
				return
			}
		}
	})
	run(&mutators, func() {
		for _, sub := range subs {
			if n, err := sub.RegisterAll(ts.pub); err != nil || n != 1 {
				t.Errorf("RegisterAll: n=%d err=%v", n, err)
			}
		}
	})
	run(&mutators, func() { // the odd preloaded rows
		for i := 1; i < preloaded; i += 2 {
			if err := ts.pub.RevokeSubscription(fmt.Sprintf("pn-%05d", i)); err != nil {
				t.Error(err)
			}
		}
	})
	waitDone(t, &mutators, time.Minute, "the mutations")
	close(stop)
	waitDone(t, &loops, time.Minute, "the snapshot and publish loops")
	t.Logf("%d snapshots and %d publishes beside %d registrations and %d revocations",
		snapshots, publishes, joiners, preloaded/2)

	// Kill: the disk image as it stands, no final snapshot.
	rst, err := Open(cloneDir(t, dir), testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	rpub := ts.newPub(t, groupSize)
	if _, err := rst.Recover(rpub); err != nil {
		t.Fatal(err)
	}
	live, got := tableCells(t, ts.pub), tableCells(t, rpub)
	if want := preloaded/2 + joiners; len(live) != want {
		t.Fatalf("live publisher holds %d rows, want %d", len(live), want)
	}
	if !maps.EqualFunc(live, got, maps.Equal) {
		t.Errorf("recovered table (%d rows) differs from the live one (%d rows)", len(got), len(live))
	}
	if rpub.Epoch() != ts.pub.Epoch() {
		t.Errorf("recovered epoch %d, live %d", rpub.Epoch(), ts.pub.Epoch())
	}
}

// TestSnapshotUnderLoadClaimsOnlyDrained is the deterministic case of the
// load test: a registration admitted while Snapshot waits on an in-flight
// apply sits above the snapshot's cover, so it survives recovery even though
// the export ran before its apply did.
func TestSnapshotUnderLoadClaimsOnlyDrained(t *testing.T) {
	ts := newTestSystem(t, 0)
	dir := t.TempDir()
	st, err := Open(dir, testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(ts.pub); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	defer close(gate) // a failed test releases whatever apply is still held
	ts.pub.SetJournal(gatedJournal{st, gate})
	first, second := newSubscriber(t, ts, "pn-first"), newSubscriber(t, ts, "pn-second")
	register := func(sub *pubsub.Subscriber) <-chan error {
		errc := make(chan error, 1)
		go func() {
			_, err := sub.RegisterAll(ts.pub)
			errc <- err
		}()
		return errc
	}

	// The first registration is durable and its apply held.
	firstDone := register(first)
	waitFor(t, "the first registration's record", func() bool { return st.Seq() == 1 })
	// The snapshot drains up to it and parks.
	parked := make(chan struct{}, 1)
	st.mu.Lock()
	st.cond = sync.NewCond(parkSignal{&st.mu, parked})
	st.mu.Unlock()
	snapDone := make(chan error, 1)
	go func() { snapDone <- st.Snapshot(ts.pub) }()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the snapshot never waited on the held apply")
	}
	// The second registration is admitted behind the drain's target.
	secondDone := register(second)
	waitFor(t, "the second registration's record", func() bool { return st.Seq() == 2 })
	// Releasing the first apply ends the drain; the export runs while the
	// second apply is still held.
	gate <- struct{}{}
	if err := <-snapDone; err != nil {
		t.Fatal(err)
	}
	if st.man.walSeq != 1 {
		t.Errorf("the snapshot claims sequence %d; only 1 was applied when it drained", st.man.walSeq)
	}
	gate <- struct{}{}
	for _, errc := range []<-chan error{firstDone, secondDone} {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	rst, err := Open(cloneDir(t, dir), testKey())
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	rpub := ts.newPub(t, 0)
	if _, err := rst.Recover(rpub); err != nil {
		t.Fatal(err)
	}
	if got := tableCells(t, rpub); len(got) != 2 || !maps.EqualFunc(got, tableCells(t, ts.pub), maps.Equal) {
		t.Errorf("recovered %d rows, want both registrations as the live publisher holds them", len(got))
	}
}

// gatedJournal holds every apply of the store it wraps until the test sends
// on gate.
type gatedJournal struct {
	*Store
	gate chan struct{}
}

func (g gatedJournal) Begin(evs []pubsub.StateEvent, apply func()) (pubsub.CommitTicket, error) {
	return g.Store.Begin(evs, func() {
		<-g.gate
		if apply != nil {
			apply()
		}
	})
}

// parkSignal is the store lock as seen by the store's condition variable.
// Only sync.Cond.Wait unlocks through it, so an Unlock reports that a waiter
// has parked (a snapshot's drain, having captured its target).
type parkSignal struct {
	*sync.Mutex
	parked chan<- struct{}
}

func (l parkSignal) Unlock() {
	select {
	case l.parked <- struct{}{}:
	default:
	}
	l.Mutex.Unlock()
}

// newSubscriber holds a token for attr0 = 1, unregistered.
func newSubscriber(t *testing.T, ts *testSystem, nym string) *pubsub.Subscriber {
	t.Helper()
	sub, err := pubsub.NewSubscriber(nym)
	if err != nil {
		t.Fatal(err)
	}
	tok, sec, err := ts.mgr.Issue(nym, "attr0", big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.AddToken(tok, sec); err != nil {
		t.Fatal(err)
	}
	return sub
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waitDone waits for wg, failing the test (a deadlock) after limit.
func waitDone(t *testing.T, wg *sync.WaitGroup, limit time.Duration, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s did not finish within %v: deadlock", what, limit)
	}
}

// tableCells reads a publisher's table T out of a full segmented export:
// pseudonym → condition → CSS (the table segment layout of
// pubsub.encodeTableColumns).
func tableCells(t *testing.T, pub *pubsub.Publisher) map[string]map[string]core.CSS {
	t.Helper()
	exp, err := pub.ExportStateSegments(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]map[string]core.CSS)
	for _, seg := range exp.Table {
		r := codec.NewReader(seg, nil)
		num := func() int {
			n, e := r.Len(len(seg))
			if e != nil && err == nil {
				err = e
			}
			return n
		}
		strs := func() []string {
			s := make([]string, num())
			for i := range s {
				var e error
				if s[i], e = r.Str(len(seg)); e != nil && err == nil {
					err = e
				}
			}
			return s
		}
		if _, err = r.U8(); err != nil {
			t.Fatal(err)
		}
		n := num()
		conds := strs()
		strs() // grouped policies
		lens := make([]uint32, n)
		if err == nil {
			err = codec.ReadU32s(r, lens)
		}
		num() // name blob length
		nyms := make([]string, n)
		for i, l := range lens {
			b, e := r.Take(int(l))
			if e != nil && err == nil {
				err = e
			}
			nyms[i] = string(b)
		}
		cells := make([]core.CSS, n*len(conds))
		if err == nil {
			err = codec.ReadU64s(r, cells)
		}
		if err != nil {
			t.Fatalf("decoding a table segment: %v", err)
		}
		for i, nym := range nyms {
			if nym == "" {
				continue
			}
			row := make(map[string]core.CSS)
			for k, cond := range conds {
				if v := cells[i*len(conds)+k]; v != 0 {
					row[cond] = v
				}
			}
			out[nym] = row
		}
	}
	return out
}
