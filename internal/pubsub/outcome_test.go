package pubsub

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"ppcd/internal/core"
	"ppcd/internal/document"
	"ppcd/internal/policy"
)

// recordedPublisher is a grouped publisher (shards of 2) over acp0, which
// covers sd0 and sd1, and acp1, which covers sd1, whose journal keeps every
// event. Its rows are acp0's alone, so sd1's configuration {acp0, acp1}
// reuses the build of {acp0} (§VIII-B) and a publish record names an alias.
// Before the journal is attached it publishes another document, which
// assigns the groups its exported state keeps, as a snapshot would; the
// first journaled publish of "doc" is then a record against no diff base.
type recordedPublisher struct {
	pub   *Publisher
	state []byte // ExportState before the first journaled event
	log   []StateEvent
}

func newRecordedPublisher(t *testing.T, rows int) *recordedPublisher {
	t.Helper()
	params, mgr := testEnv(t)
	acp0, err := policy.New("acp0", "attr0 >= 1", "", "sd0", "sd1")
	if err != nil {
		t.Fatal(err)
	}
	acp1, err := policy.New("acp1", "attr1 >= 1", "", "sd1")
	if err != nil {
		t.Fatal(err)
	}
	rp := &recordedPublisher{}
	if rp.pub, err = NewPublisher(params, mgr.PublicKey(), []*policy.ACP{acp0, acp1}, Options{Ell: 8, GroupSize: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		rp.pub.reg.setCells(nymOf(i), map[string]core.CSS{"attr0 >= 1": core.CSS(i + 1)})
	}
	if _, err := rp.pub.Publish(rp.edition(t, "warm-up", "warm-up")); err != nil {
		t.Fatal(err)
	}
	if rp.state, err = rp.pub.ExportState(); err != nil {
		t.Fatal(err)
	}
	rp.pub.SetJournal(journalFunc(func(ev StateEvent) error {
		rp.log = append(rp.log, ev)
		return nil
	}))
	return rp
}

func nymOf(i int) string { return "pn-" + string(rune('a'+i)) }

func (rp *recordedPublisher) edition(t *testing.T, name, text string) *document.Document {
	t.Helper()
	doc, err := document.New(name,
		document.Subdocument{Name: "sd0", Content: []byte(text + " zero")},
		document.Subdocument{Name: "sd1", Content: []byte(text + " one")})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func (rp *recordedPublisher) publish(t *testing.T, text string) *Broadcast {
	t.Helper()
	b, err := rp.pub.Publish(rp.edition(t, "doc", text))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recovered returns a publisher restored from the state exported before the
// first journaled event, with events replayed through the record codec.
func (rp *recordedPublisher) recovered(t *testing.T, events []StateEvent) *Publisher {
	t.Helper()
	params, mgr := testEnv(t)
	p, err := NewPublisher(params, mgr.PublicKey(), rp.pub.acps, rp.pub.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ImportState(rp.state); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := p.ApplyStateEvent(recoded(t, ev)); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// recoded hands a publish event's outcome over the way a decoded record does:
// the delta's headers are copies that share no object with the publisher that
// built them, and nothing a case mutates is shared with the journal.
func recoded(t *testing.T, ev StateEvent) StateEvent {
	t.Helper()
	if ev.Outcome == nil {
		return ev
	}
	o, d := *ev.Outcome, *ev.Outcome.Delta
	d.Configs = slices.Clone(d.Configs)
	for i := range d.Configs {
		cp := &d.Configs[i]
		if cp.Header != nil {
			cp.Header = cp.Header.Clone()
		}
		if cp.Grouped != nil {
			g := *cp.Grouped
			g.From = slices.Clone(g.From)
			g.Headers = make([]*core.Header, len(cp.Grouped.Headers))
			for k, h := range cp.Grouped.Headers {
				g.Headers[k] = h.Clone()
			}
			cp.Grouped = &g
		}
	}
	o.Delta, o.Configs, o.Shards = &d, slices.Clone(o.Configs), slices.Clone(o.Shards)
	ev.Outcome = &o
	return ev
}

// TestPublishRecordsRestoreDiffBaseAndCache: replaying the journal of a cold
// publish, two re-solving ones and a revocation after the last restores the
// last broadcast exactly — an alias carrying its representative's name —
// and the engine cache, so the next publish re-solves only the revocation's
// shard, and with nothing journaled after the last publish re-solves nothing
// and changes no configuration. That holds for a second document too, whose
// publish reused configurations the first one's rebuilt: its record installs
// nothing, and its diff base holds the solves the cache holds.
func TestPublishRecordsRestoreDiffBaseAndCache(t *testing.T) {
	rp := newRecordedPublisher(t, 8)
	rp.publish(t, "first")
	if err := rp.pub.RevokeSubscription(nymOf(2)); err != nil {
		t.Fatal(err)
	}
	rp.publish(t, "second")
	if err := rp.pub.RevokeSubscription(nymOf(5)); err != nil {
		t.Fatal(err)
	}
	last := rp.publish(t, "third")
	other, err := rp.pub.Publish(rp.edition(t, "warm-up", "again"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []*PublishOutcome
	for _, ev := range rp.log {
		if ev.Kind == StateEventPublish {
			if ev.Outcome == nil {
				t.Fatalf("publish record at epoch %d carries no outcome", ev.Epoch)
			}
			recs = append(recs, ev.Outcome)
		}
	}
	if len(recs) != 4 || recs[0].Delta.BaseEpoch != 0 || len(recs[2].Shards) != 1 || len(recs[3].Configs) != 0 {
		t.Fatalf("journal: %d publishes; want 4, the first against no base, the third with the one re-solved shard, the fourth rebuilding nothing", len(recs))
	}
	for _, o := range recs[2:] {
		if len(o.Aliases) != 1 || o.Aliases["acp0|acp1"] != "acp0" {
			t.Fatalf("record of %q names aliases %v, want acp0|acp1 → acp0", o.Delta.DocName, o.Aliases)
		}
	}

	p := rp.recovered(t, rp.log)
	if p.Epoch() != other.Epoch {
		t.Fatalf("replayed epoch %d, want %d", p.Epoch(), other.Epoch)
	}
	for _, want := range []*Broadcast{last, other} {
		got := p.LastBroadcast(want.DocName)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed diff base of %q differs from its last broadcast", want.DocName)
		}
		if got.Configs[0].Grouped.Name() != got.Configs[1].Grouped.Name() {
			t.Errorf("%q: the alias does not carry its representative's name", want.DocName)
		}
		next, err := p.Publish(rp.edition(t, want.DocName, "fourth"))
		if err != nil {
			t.Fatal(err)
		}
		d, err := Diff(got, next)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Configs) != 0 || len(d.Items) != 2 {
			t.Errorf("%q: one-epoch delta after replay ships %d configurations and %d items, want 0 and 2", want.DocName, len(d.Configs), len(d.Items))
		}
	}
	if s := p.Stats(); s.Solves != 0 || s.Rebuilds != 0 {
		t.Errorf("publishes after replay: %d solves, %d rebuilds; want 0 and 0", s.Solves, s.Rebuilds)
	}

	// A leave journaled after the last publish re-solves its shard only.
	if err := rp.pub.RevokeSubscription(nymOf(7)); err != nil {
		t.Fatal(err)
	}
	p = rp.recovered(t, rp.log)
	if _, err := p.Publish(rp.edition(t, "doc", "fourth")); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.Solves != 1 {
		t.Errorf("a leave after the last publish record: %d solves, want 1", s.Solves)
	}
}

// TestHostilePublishRecords: a publish record that does not fit the restored
// state is refused or replays as its epoch alone — never a panic, and never a
// change to the diff base or the engine cache.
func TestHostilePublishRecords(t *testing.T) {
	rp := newRecordedPublisher(t, 6)
	rp.publish(t, "first")
	if err := rp.pub.RevokeSubscription(nymOf(1)); err != nil {
		t.Fatal(err)
	}
	rp.publish(t, "second")
	good := rp.log[len(rp.log)-1]

	cases := []struct {
		name   string
		mutate func(ev *StateEvent, gen uint64)
		err    bool
	}{
		{"unknown shard", func(ev *StateEvent, _ uint64) { ev.Outcome.Shards[0].ID = "acp0/99" }, true},
		{"unknown config", func(ev *StateEvent, _ uint64) { ev.Outcome.Configs[0].ID = "acp9" }, true},
		{"shard list of another length", func(ev *StateEvent, _ uint64) { ev.Outcome.Configs[0].Shards = ev.Outcome.Configs[0].Shards[1:] }, true},
		{"foreign gen", func(ev *StateEvent, gen uint64) { ev.Outcome.Delta.Gen = gen + 1 }, false},
		{"epoch going backwards", func(ev *StateEvent, _ uint64) { ev.Epoch, ev.Outcome.Delta.Epoch = 1, 1 }, false},
		{"over-cap document name", func(ev *StateEvent, _ uint64) {
			ev.Doc = strings.Repeat("d", maxStateCondLen+1)
			ev.Outcome.Delta.DocName = ev.Doc
		}, true},
		{"base epoch mismatch", func(ev *StateEvent, _ uint64) { ev.Outcome.Delta.BaseEpoch++ }, false},
		{"From past the base", func(ev *StateEvent, _ uint64) { ev.Outcome.Delta.Configs[0].Grouped.From[0] = 99 }, true},
		{"outcome of another epoch", func(ev *StateEvent, _ uint64) { ev.Outcome.Delta.Epoch++ }, true},
		{"no outcome", func(ev *StateEvent, _ uint64) { ev.Outcome = nil }, false},
	}
	for _, c := range cases {
		p := rp.recovered(t, rp.log[:len(rp.log)-1])
		base, epoch := p.LastBroadcast("doc"), p.Epoch()
		ev := recoded(t, good)
		c.mutate(&ev, p.Generation())
		err := p.ApplyStateEvent(ev)
		if (err != nil) != c.err {
			t.Errorf("%s: replay error %v, want error %v", c.name, err, c.err)
		}
		if p.LastBroadcast("doc") != base {
			t.Errorf("%s: the diff base moved", c.name)
		}
		if !c.err && p.Epoch() != max(epoch, ev.Epoch) {
			t.Errorf("%s: epoch %d after replaying epoch %d over %d", c.name, p.Epoch(), ev.Epoch, epoch)
		}
		before := p.Stats().Solves
		if _, err := p.Publish(rp.edition(t, "doc", "third")); err != nil {
			t.Fatalf("%s: publish after the record: %v", c.name, err)
		}
		if p.Stats().Solves == before {
			t.Errorf("%s: the engine cache took the record's solve", c.name)
		}
	}

}
