package pubsub

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"ppcd/internal/codec"
	"ppcd/internal/core"
	"ppcd/internal/document"
	"ppcd/internal/ff64"
	"ppcd/internal/policy"
)

// newSegEnv is a grouped publisher over three policies and three conditions,
// one policy a conjunction, so table rows differ in width and a row can sit
// in some policies' groups and not in others.
func newSegEnv(t testing.TB, groupSize int) *deltaEnv {
	t.Helper()
	params, mgr := testEnv(t)
	var acps []*policy.ACP
	var subdocs []document.Subdocument
	for i, cond := range []string{"attr0 >= 1", "attr0 >= 1 && attr1 >= 1", "attr2 >= 1"} {
		a, err := policy.New(fmt.Sprintf("acp%d", i), cond, "doc", fmt.Sprintf("sd%d", i))
		if err != nil {
			t.Fatal(err)
		}
		acps = append(acps, a)
		subdocs = append(subdocs, document.Subdocument{Name: fmt.Sprintf("sd%d", i), Content: []byte(fmt.Sprintf("content of sd%d", i))})
	}
	doc, err := document.New("doc", subdocs...)
	if err != nil {
		t.Fatal(err)
	}
	pub, err := NewPublisher(params, mgr.PublicKey(), acps, Options{Ell: 8, GroupSize: groupSize})
	if err != nil {
		t.Fatal(err)
	}
	return &deltaEnv{pub: pub, doc: doc, css: make(map[string]map[string]core.CSS)}
}

// churned populates env with 14 rows of mixed width, publishes, takes three
// rows and one credential away (dead slots, an emptied group, a row that left
// one policy but not another) and publishes again, so no churn is pending.
func churned(t testing.TB, env *deltaEnv) []string {
	t.Helper()
	var nyms []string
	for i := 0; i < 14; i++ {
		nyms = append(nyms, env.join(t, 1+i%3))
	}
	if _, err := env.pub.Publish(env.doc); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 6, 11} {
		if err := env.pub.RevokeSubscription(nyms[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.pub.RevokeCredential(nyms[4], "attr1 >= 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.pub.Publish(env.doc); err != nil {
		t.Fatal(err)
	}
	return nyms
}

// segmentsOf is a full segmented export laid out the way the store hands it
// back: table and cache payloads in index order.
func segmentsOf(t testing.TB, pub *Publisher, segSlots int) (meta []byte, table, cache [][]byte) {
	t.Helper()
	exp, err := pub.ExportStateSegments(segSlots, nil)
	if err != nil {
		t.Fatal(err)
	}
	return exp.Meta, exp.Table, exp.Cache
}

// restart imports a full segmented export of from into to, as a recovery
// does, and returns the export.
func restart(t testing.TB, from, to *Publisher) *SegmentExport {
	t.Helper()
	exp, err := from.ExportStateSegments(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := to.ImportStateSegments(4, exp.Meta, exp.Table, exp.Cache, 2); err != nil {
		t.Fatal(err)
	}
	return exp
}

// payloads lists a full export's segments: the meta segment, every table
// segment and every cache bucket, in index order.
func payloads(exp *SegmentExport) [][]byte {
	return slices.Concat([][]byte{exp.Meta}, exp.Table, exp.Cache)
}

// rewritten counts the segments an export carries a payload for.
func rewritten(segs [][]byte) (n int) {
	for _, seg := range segs {
		if seg != nil {
			n++
		}
	}
	return n
}

// TestSegmentedRestartLockstep is the restart oracle, grouped and not: a
// full segmented export (meta, every table segment, every cache bucket) is
// byte-identical taken twice and taken again from a publisher rebuilt in
// place from it, and that publisher holds the same table, membership
// versions and assignment as the map model reads them — keeps every slot,
// recycles the dead ones through the free list, and publishes without a
// solve or a table scan.
func TestSegmentedRestartLockstep(t *testing.T) {
	for _, groupSize := range []int{0, 3} {
		t.Run(fmt.Sprintf("g%d", groupSize), func(t *testing.T) { segmentedRestartLockstep(t, groupSize) })
	}
}

func segmentedRestartLockstep(t *testing.T, groupSize int) {
	env := newSegEnv(t, groupSize)
	churned(t, env)
	before, err := env.pub.ExportStateSegments(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Table) < 3 {
		t.Fatalf("%d table segments, want several", len(before.Table))
	}
	again, err := env.pub.ExportStateSegments(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(payloads(before), payloads(again), bytes.Equal) {
		t.Fatal("two full exports of one state differ")
	}

	env2 := newSegEnv(t, groupSize)
	tabGen, err := env2.pub.ImportStateSegments(4, before.Meta, before.Table, before.Cache, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dirty := env2.pub.reg.tab.dirty; len(dirty) != 0 {
		t.Errorf("restored table has dirty slots %v", dirty)
	}
	after, err := env2.pub.ExportStateSegments(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := payloads(after), payloads(before); !slices.EqualFunc(got, want, bytes.Equal) {
		for i := range min(len(got), len(want)) {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("segment %d of %d differs across the restart (%d vs %d bytes)", i, len(want), len(got[i]), len(want[i]))
			}
		}
		t.Fatalf("full segmented export differs across the restart (%d vs %d segments)", len(got), len(want))
	}
	if !reflect.DeepEqual(env.pub.reg.exportFull(), env2.pub.reg.exportFull()) {
		t.Fatal("restored table, versions or assignment differ from the map model's reading before the stop")
	}
	if env2.pub.Generation() != env.pub.Generation() || env2.pub.Epoch() != env.pub.Epoch() {
		t.Errorf("restored generation/epoch %d/%d, want %d/%d", env2.pub.Generation(), env2.pub.Epoch(), env.pub.Generation(), env.pub.Epoch())
	}

	// Slots survive, dead ones are free, the order is the sorted order.
	old, tab := env.pub.reg.tab, env2.pub.reg.tab
	if len(tab.nyms) != len(old.nyms) || tab.live != old.live {
		t.Fatalf("restored %d slots / %d live, want %d / %d", len(tab.nyms), tab.live, len(old.nyms), old.live)
	}
	for s, nym := range old.nyms {
		if tab.nyms[s] != nym {
			t.Errorf("slot %d holds %q after the restart, %q before", s, tab.nyms[s], nym)
		}
		if nym != "" && tab.slotOf[nym] != int32(s) {
			t.Errorf("%s indexed at slot %d, lives at %d", nym, tab.slotOf[nym], s)
		}
	}
	if len(tab.freed) != 3 || tab.dead != 0 || len(tab.pendAdd) != 0 {
		t.Errorf("free list %v, dead %d, pending %d; want the 3 revoked slots free and nothing pending", tab.freed, tab.dead, len(tab.pendAdd))
	}
	order := tab.sortedLive()
	if len(order) != tab.live || !sort.SliceIsSorted(order, func(i, j int) bool { return tab.nyms[order[i]] < tab.nyms[order[j]] }) {
		t.Errorf("restored order %v is not the %d live slots in pseudonym order", order, tab.live)
	}
	// Zero solves and zero table scans on the first publish; a base carrying
	// the returned generation exports nothing.
	s0 := env2.pub.Stats()
	if _, err := env2.pub.Publish(env2.doc); err != nil {
		t.Fatal(err)
	}
	if s1 := env2.pub.Stats(); s1.Solves != s0.Solves || s1.FullRegroups != 0 {
		t.Errorf("first publish after the restart: %d solves, %d full regroups; want 0 and 0", s1.Solves-s0.Solves, s1.FullRegroups)
	}
	base := &SegmentBase{Geometry: before.Geometry, TabGen: tabGen, CacheDigests: before.CacheDigests}
	quiet, err := env2.pub.ExportStateSegments(4, base)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Full || rewritten(quiet.Table) != 0 || rewritten(quiet.Cache) != 0 {
		t.Errorf("export against the restored base: full=%v, %d table and %d cache segments rewritten; want none", quiet.Full, rewritten(quiet.Table), rewritten(quiet.Cache))
	}

	// A newcomer takes a recycled slot: the table does not grow.
	env2.next = 100
	nym := env2.join(t, 1)
	if s := tab.slotOf[nym]; old.nyms[s] != "" || len(tab.nyms) != len(old.nyms) {
		t.Errorf("newcomer landed in slot %d of %d (was %q); want a recycled dead slot", s, len(tab.nyms), old.nyms[s])
	}
}

// TestSegmentedRestartPendingChurn: state exported between a mutation and the
// next publish stores an assignment its own cells contradict. The import
// settles it like the live publisher would have — the leaver's group is
// re-solved, the joiner gets a group, both rows are dirty again — without a
// full regroup.
func TestSegmentedRestartPendingChurn(t *testing.T) {
	env := newSegEnv(t, 3)
	nyms := churned(t, env)
	if err := env.pub.RevokeCredential(nyms[0], "attr0 >= 1"); err != nil { // nyms[0] holds only attr0
		t.Fatal(err)
	}
	joiner := env.join(t, 1)
	meta, table, cache := segmentsOf(t, env.pub, 4)

	env2 := newSegEnv(t, 3)
	if _, err := env2.pub.ImportStateSegments(4, meta, table, cache, 2); err != nil {
		t.Fatal(err)
	}
	if env2.pub.reg.has(nyms[0], "") {
		t.Fatal("row without a credential came back")
	}
	if s := env2.pub.reg.tab.slotOf[joiner]; env2.pub.reg.tab.gids["acp0"][s] == gidNone {
		t.Error("pending joiner has no group after the import")
	}
	if s := env2.pub.reg.tab.slotOf[joiner]; env2.pub.reg.tab.dirty[s>>6]&(1<<(uint(s)&63)) == 0 {
		t.Error("joiner's slot is clean although its stored assignment changed")
	}
	b, err := env2.pub.Publish(env2.doc)
	if err != nil {
		t.Fatal(err)
	}
	if st := env2.pub.Stats(); st.FullRegroups != 0 || st.Solves == 0 {
		t.Errorf("publish after pending churn: %d full regroups, %d solves; want 0 and some", st.FullRegroups, st.Solves)
	}
	if got, err := env.subscriber(t, joiner).Decrypt(b); err != nil || len(got) != 1 {
		t.Errorf("joiner decrypts %d subdocuments (%v), want 1", len(got), err)
	}
	if got, _ := env.subscriber(t, nyms[0]).Decrypt(b); len(got) != 0 {
		t.Error("leaver still decrypts")
	}
}

// TestSegmentedRestartDroppedCondition: segments written under a policy set
// the publisher no longer has lose that condition's cells; the import marks
// everything dirty and hands back a generation the registry has already left,
// so the next export is full.
func TestSegmentedRestartDroppedCondition(t *testing.T) {
	env := newSegEnv(t, 3)
	churned(t, env)
	meta, table, cache := segmentsOf(t, env.pub, 4)

	narrow := newDeltaEnv(t, 1, 3) // only acp0 / attr0
	tabGen, err := narrow.pub.ImportStateSegments(4, meta, table, cache, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tabGen == narrow.pub.reg.tabGen {
		t.Error("a base for segments that still hold the dropped condition stayed valid")
	}
	for _, nym := range narrow.pub.reg.tab.nyms {
		if nym != "" && narrow.pub.reg.rowCopy(nym)["attr0 >= 1"] == 0 {
			t.Errorf("%s survived without a cell the publisher knows", nym)
		}
	}
	if _, err := narrow.pub.Publish(narrow.doc); err != nil {
		t.Fatal(err)
	}
	if st := narrow.pub.Stats(); st.FullRegroups != 1 {
		t.Errorf("publish after a dropped condition: %d full regroups, want 1", st.FullRegroups)
	}
}

// hostileTableSegments are table segments a sound export never writes. Each
// is built for a table of the newSegEnv shape at 4 slots per segment and
// replaces segment 1 of a real export (hostileSegment says where), except
// "across", which repeats a pseudonym of segment 0.
func hostileTableSegments(pub *Publisher) map[string][]byte {
	conds := pub.reg.tab.conds
	pols := []string{"acp0", "acp1", "acp2"}
	nyms := []string{"pn-a", "", "pn-b", "pn-c"}
	cells := func() []core.CSS {
		return []core.CSS{5, 6, 0 /**/, 0, 0, 0 /**/, 7, 0, 0 /**/, 8, 0, 9}
	}
	gids := func() [][]int32 {
		return [][]int32{{0, gidNone, 0, 1}, {0, gidNone, gidNone, gidNone}, {gidNone, gidNone, gidNone, 0}}
	}
	good := encodeTableColumns(conds, pols, nyms, cells(), gids())
	out := map[string][]byte{
		"shorter":      good[:len(good)-5],
		"longer":       append(append([]byte(nil), good...), 0, 0, 0, 0),
		"v2":           append([]byte{2}, good[1:]...),
		"too-wide":     encodeTableColumns(conds, pols, append(nyms[:4:4], "pn-d"), append(cells(), 1, 0, 0), [][]int32{{0, gidNone, 0, 1, gidNone}, {0, gidNone, gidNone, gidNone, gidNone}, {gidNone, gidNone, gidNone, 0, gidNone}}),
		"within":       encodeTableColumns(conds, pols, []string{"pn-a", "", "pn-b", "pn-a"}, cells(), gids()),
		"across":       encodeTableColumns(conds, pols, []string{"pn-0", "", "pn-b", "pn-c"}, cells(), gids()),
		"ghost-policy": encodeTableColumns(conds, []string{"acp0", "acp1", "acp9"}, nyms, cells(), gids()),
		"twice":        encodeTableColumns([]string{conds[0], conds[1], conds[0]}, pols, nyms, cells(), gids()),
	}
	c := cells()
	c[0], c[1] = 0, 0 // pn-a lives without a CSS
	out["css-zero"] = encodeTableColumns(conds, pols, nyms, c, gids())
	c = cells()
	c[4] = 3 // the dead slot holds one
	out["css-dead"] = encodeTableColumns(conds, pols, nyms, c, gids())
	c = cells()
	c[6] = core.CSS(ff64.Modulus)
	out["css-unreduced"] = encodeTableColumns(conds, pols, nyms, c, gids())
	g := gids()
	g[0][3] = 1000
	out["gid-universe"] = encodeTableColumns(conds, pols, nyms, cells(), g)
	g = gids()
	g[0][1] = 0
	out["gid-dead"] = encodeTableColumns(conds, pols, nyms, cells(), g)
	g = gids()
	g[2][0] = -7
	out["gid-negative"] = encodeTableColumns(conds, pols, nyms, cells(), g)

	// Name lengths that overrun (and underrun) the blob: patch the length
	// column, which follows the header.
	hdr := 1 + 4 + 4 + 4
	for _, s := range append(append([]string(nil), conds...), pols...) {
		hdr += 4 + len(s)
	}
	over := append([]byte(nil), good...)
	over[hdr+3]++ // pn-a's length, low byte
	out["names-overrun"] = over
	under := append([]byte(nil), good...)
	under[hdr+3]--
	out["names-underrun"] = under
	huge := append([]byte(nil), good...)
	huge[hdr] = 0x7f // one name of ~2 GiB
	out["names-huge"] = huge
	return out
}

// TestSegmentedImportHostile: every hostile table segment is refused, inside
// the shared allocation budget, and leaves the publisher untouched; so is a
// geometry whose segments cannot carry their own length columns.
func TestSegmentedImportHostile(t *testing.T) {
	env := newSegEnv(t, 3)
	churned(t, env)
	meta, table, cache := segmentsOf(t, env.pub, 4)
	fresh := func() *Publisher { return newSegEnv(t, 3).pub }

	for name, seg := range hostileTableSegments(env.pub) {
		mut := append([][]byte(nil), table...)
		mut[1] = seg
		p := fresh()
		_, err := p.ImportStateSegments(4, meta, mut, cache, 2)
		if err == nil {
			t.Errorf("%s: hostile table segment imported", name)
		} else if name == "v2" && !strings.Contains(err.Error(), "unsupported segment version 2") {
			t.Errorf("v2 payload refused as %q", err)
		}
		if p.SubscriberCount() != 0 || p.Epoch() != 0 {
			t.Errorf("%s: refused import left %d rows, epoch %d", name, p.SubscriberCount(), p.Epoch())
		}
	}

	// The hostile set is only hostile if its template is sound.
	sound := append([][]byte(nil), table[:1]...)
	sound = append(sound, encodeTableColumns(env.pub.reg.tab.conds, []string{"acp0", "acp1", "acp2"},
		[]string{"pn-a", "", "pn-b", "pn-c"}, []core.CSS{5, 6, 0, 0, 0, 0, 7, 0, 0, 8, 0, 9},
		[][]int32{{0, gidNone, 0, 1}, {0, gidNone, gidNone, gidNone}, {gidNone, gidNone, gidNone, 0}}))
	if _, err := fresh().ImportStateSegments(4, meta, sound, cache, 2); err != nil {
		t.Fatalf("template segment refused: %v", err)
	}

	// A span the manifest could claim but the segments cannot back: refused
	// before the table is sized.
	if _, err := fresh().ImportStateSegments(1<<22, meta, table, cache, 2); err == nil {
		t.Error("segments shorter than their declared span imported")
	}
	if _, err := fresh().ImportStateSegments(0, meta, table, cache, 2); err == nil {
		t.Error("zero segment span imported")
	}
	// A table wider than the segment dictionaries is an allocation the input
	// does not pay for; it is charged, and a budget that cannot cover it
	// refuses.
	tr, err := fresh().reg.newTableRestore(4, table, map[string]int{"acp0": 9, "acp1": 9, "acp2": 9}, codec.NewBudget(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.decodeSegment(0); err == nil {
		t.Error("segment decoded past an exhausted budget")
	}
}

// FuzzTableSegment: whatever the table-segment decoder accepts it accepts
// without panicking, and — when it names the publisher's own dictionaries —
// re-encodes from the restored columns to the very same bytes.
func FuzzTableSegment(f *testing.F) {
	env := newSegEnv(f, 3)
	var nyms []string
	for i := 0; i < 7; i++ {
		nyms = append(nyms, fmt.Sprintf("pn-%d", i))
		cells := map[string]core.CSS{"attr0 >= 1": core.CSS(10 + i)}
		if i%2 == 0 {
			cells["attr1 >= 1"] = core.CSS(20 + i)
		}
		if i%3 == 0 {
			cells["attr2 >= 1"] = core.CSS(30 + i)
		}
		env.pub.reg.setCells(nyms[i], cells)
	}
	if _, err := env.pub.Publish(env.doc); err != nil {
		f.Fatal(err)
	}
	if err := env.pub.RevokeSubscription(nyms[2]); err != nil {
		f.Fatal(err)
	}
	if _, err := env.pub.Publish(env.doc); err != nil {
		f.Fatal(err)
	}
	_, table, _ := segmentsOf(f, env.pub, 8)
	f.Add(table[0])
	for _, seg := range hostileTableSegments(env.pub) {
		f.Add(seg)
	}

	reg := env.pub.reg
	universe := map[string]int{"acp0": 4, "acp1": 4, "acp2": 4}
	pols := sortedKeys(universe)
	dicts := 8
	for _, s := range append(append([]string(nil), reg.tab.conds...), pols...) {
		dicts += 4 + len(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := reg.newTableRestore(8, [][]byte{data}, universe, codec.NewBudget(maxStateHeaderBudget))
		if err != nil {
			return
		}
		if err := tr.decodeSegment(0); err != nil {
			return
		}
		gids := make([][]int32, len(pols))
		for k, pid := range pols {
			gids[k] = tr.tab.gids[pid]
		}
		again := encodeTableColumns(reg.tab.conds, pols, tr.tab.nyms, tr.tab.cells, gids)
		if len(data) >= 5+dicts && bytes.Equal(data[5:5+dicts], again[5:5+dicts]) && !bytes.Equal(data, again) {
			t.Fatalf("accepted segment re-encodes differently:\n in %x\nout %x", data, again)
		}
	})
}

// FuzzCacheSegment: an accepted cache bucket re-encodes to the same bytes.
func FuzzCacheSegment(f *testing.F) {
	env := newSegEnv(f, 3)
	churned(f, env)
	_, _, cache := segmentsOf(f, env.pub, 8)
	for _, seg := range cache {
		f.Add(seg)
		f.Add(seg[:len(seg)/2])
		f.Add(append([]byte{2}, seg[1:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seg := decodeCacheSegment(data, codec.NewBudget(maxStateHeaderBudget))
		if seg.err != nil {
			return
		}
		again, err := encodeCacheBucket(seg.cfgs, seg.shards, seg.grouped)
		if err != nil || !bytes.Equal(data, again) {
			t.Fatalf("accepted cache bucket re-encodes differently:\n in %x\nout %x", data, again)
		}
	})
}

// hostileMeta is a meta segment a sound export never writes, and what its
// refusal names.
type hostileMeta struct {
	data []byte
	want string
}

// hostileMetaSegments are meta segments of every shape the decoder must
// refuse. All but the last two are hand-built, of generation 7, with no
// membership versions and no group universe, for an empty table; "v2" and
// "trailing" are real, the real meta segment given rewritten.
func hostileMetaSegments(real []byte) map[string]hostileMeta {
	meta := func(gen uint64, body func(w *stateWriter)) []byte {
		w := &stateWriter{}
		w.u8(segPayloadVersion)
		w.u64(1) // epoch
		w.u64(gen)
		body(w)
		return w.out()
	}
	bases := func(docs ...func(w *stateWriter)) func(w *stateWriter) {
		return func(w *stateWriter) {
			w.u32(0) // membership versions
			w.u32(0) // group universes
			w.u32(len(docs))
			for _, d := range docs {
				d(w)
			}
		}
	}
	// doc writes the diff base keyed key: a broadcast of document name at
	// epoch 1 of generation gen, with one configuration "acp0" that cfg writes
	// the header of (none when cfg is nil).
	doc := func(key, name string, gen uint64, cfg func(w *stateWriter)) func(w *stateWriter) {
		return func(w *stateWriter) {
			w.str(key)
			w.str(name)
			w.u64(1)
			w.u64(gen)
			w.u32(0) // policies
			if cfg == nil {
				w.u32(0)
			} else {
				w.u32(1)
				w.str("acp0")
				w.u64(1) // revision
				cfg(w)
			}
			w.u32(0) // items
			w.u32(0) // digests
		}
	}
	header := &core.Header{X: []ff64.Elem{1, 2}, Seed: bytes.Repeat([]byte{9}, core.SeedSize)}
	grouped := func(nonce, revs int) func(w *stateWriter) {
		return func(w *stateWriter) {
			w.u8(stCfgGroupedIn)
			w.bytes(make([]byte, nonce))
			w.u32(1)
			writeStateHeader(w, header)
			w.u64(5) // wrap
			w.u32(revs)
			for range revs {
				w.u64(1)
			}
		}
	}
	return map[string]hostileMeta{
		"zero-generation":  {meta(0, bases()), "zero generation"},
		"oversized-count":  {meta(7, func(w *stateWriter) { w.u32(1 << 30) }), "exceeds limits"},
		"count-past-input": {meta(7, func(w *stateWriter) { w.u32(3 << 20) }), "truncated"}, // a map of 3M versions from 4 bytes
		"group-universe":   {groupUniverseMeta(), "exceeds limits"},
		"unknown-config":   {meta(7, bases(doc("doc", "doc", 7, func(w *stateWriter) { w.u8(stCfgRef); w.str("nope") }))), "unknown configuration"},
		"unknown-grouped":  {meta(7, bases(doc("doc", "doc", 7, func(w *stateWriter) { w.u8(stCfgGroupedRef); w.str("nope") }))), "unknown grouped configuration"},
		"shard-revisions":  {meta(7, bases(doc("doc", "doc", 7, grouped(core.NonceSize, 2)))), "2 shard revisions for 1 shards"},
		"short-nonce":      {meta(7, bases(doc("doc", "doc", 7, grouped(3, 1)))), "rekey nonce of 3 bytes"},
		"foreign-gen":      {meta(7, bases(doc("doc", "doc", 8, nil))), "foreign generation"},
		"duplicate-doc":    {meta(7, bases(doc("doc", "doc", 7, nil), doc("doc", "doc", 7, nil))), "duplicate document"},
		"misfiled-doc":     {meta(7, bases(doc("doc", "other", 7, nil))), "holds document"},
		"config-kind":      {meta(7, bases(doc("doc", "doc", 7, func(w *stateWriter) { w.u8(9) }))), "bad state config kind 9"},
		"unreduced-header": {meta(7, bases(doc("doc", "doc", 7, func(w *stateWriter) { w.u8(stCfgInline); w.u32(1); w.u64(ff64.Modulus); w.raw(header.Seed) }))), "not reduced"},
		"v2":               {append([]byte{2}, real[1:]...), "unsupported segment version 2"},
		"trailing":         {append(slices.Clone(real), 0), "trailing bytes"},
	}
}

// groupUniverseMeta declares 64 policies of the largest group universe: at
// the 64 bytes charged per group, 16 GiB of per-group state the meta
// segment's few bytes do not pay for.
func groupUniverseMeta() []byte {
	w := &stateWriter{}
	w.u8(segPayloadVersion)
	w.u64(1) // epoch
	w.u64(7) // gen
	w.u32(0) // membership versions
	const policies = 64
	w.u32(policies)
	for i := 0; i < policies; i++ {
		w.str(fmt.Sprintf("acp%d", i))
		w.u32(maxStateCount)
	}
	w.u32(0) // diff bases
	return w.out()
}

// FuzzMetaSegment: the meta-segment decoder — the stamp, the membership
// versions, the group universes and the diff bases with every broadcast
// configuration kind, shard revisions and digests — decodes or refuses
// whatever it is handed without panicking, inside the shared budget, and
// allocates no more than a small multiple of its input. Seeds are real
// grouped and ungrouped exports, their truncations and every hostile case.
func FuzzMetaSegment(f *testing.F) {
	var cfgs []core.CachedConfig
	var shards []core.CachedShard
	var grouped []core.CachedGrouped
	for _, groupSize := range []int{0, 3} {
		env := newSegEnv(f, groupSize)
		churned(f, env)
		meta, _, cache := segmentsOf(f, env.pub, 4)
		for _, seg := range cache {
			dec := decodeCacheSegment(seg, nil)
			cfgs, shards, grouped = append(cfgs, dec.cfgs...), append(shards, dec.shards...), append(grouped, dec.grouped...)
		}
		f.Add(meta)
		for cut := 0; cut < len(meta); cut += len(meta)/8 + 1 {
			f.Add(meta[:cut])
		}
		for _, h := range hostileMetaSegments(meta) {
			f.Add(h.data)
		}
	}
	refs := newCacheRefs(cfgs, shards, grouped)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, _ = decodeMetaSegment(data, codec.NewBudget(maxStateHeaderBudget), refs)
		runtime.ReadMemStats(&ms)
		if got, bound := ms.TotalAlloc-before, 64*uint64(len(data))+1<<20; got > bound {
			t.Fatalf("decoding a %d-byte meta segment allocated %d bytes, more than %d", len(data), got, bound)
		}
	})
}
