package pubsub

import (
	"errors"
	"fmt"
	"reflect"
	"sort"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/policy"
)

// This file is the dissemination layer's diff engine. A publisher that keeps
// its published broadcasts can express any later epoch as a BroadcastDelta
// against an earlier one: only the configurations, shards and items whose
// revision advanced past the base epoch travel, plus explicit removals. A
// subscriber holding the base broadcast applies the delta and ends up with a
// state that decrypts identically to a full fetch of the target epoch —
// which turns the paper's "rekeying is pure broadcast" (§V-C) into
// "rekeying is a pure *incremental* broadcast": a single leave at N
// subscribers ships one re-solved shard sub-header, the per-shard wraps and
// the re-encrypted items of the affected configurations, not the full
// multi-configuration header set.

// ConfigPatch replaces one configuration's rekey material inside a delta.
// Exactly one of Header/Grouped is set for an accessible configuration;
// both nil means the configuration became inaccessible (no qualified rows —
// subscribers drop their header for it).
type ConfigPatch struct {
	Key     policy.ConfigKey
	Rev     uint64
	Header  *core.Header
	Grouped *GroupedPatch
}

// GroupedPatch rebuilds a grouped header incrementally: the fresh rekey
// nonce and ALL per-shard wraps (8 bytes each — they change on every
// reassembly), but sub-headers only for shards that actually re-solved.
// From[i] names the shard of the BASE configuration whose sub-header shard i
// keeps (clean shard), or -1 to consume the next entry of Headers (dirty or
// new shard).
//
// A patch carries no revision of a clean shard: it keeps its sub-header and
// with it the revision the base holds for it. Revs, parallel to Headers, is
// the revision of each shipped sub-header — the delta's epoch, unless the
// delta spans several epochs and the shard re-solved before its last. Apply
// rebuilds the configuration's ShardRevs from the two, so they equal the
// publisher's exactly.
type GroupedPatch struct {
	RekeyNonce []byte
	Wraps      []ff64.Elem
	From       []int
	Headers    []*core.Header
	Revs       []uint64
}

// BroadcastDelta is everything that changed between two epochs of one
// document. Empty Configs/Items slices are legal (a steady-state republish
// changes nothing but the epoch).
type BroadcastDelta struct {
	DocName   string
	BaseEpoch uint64
	Epoch     uint64
	// Gen is the publisher generation both epochs belong to; Apply rejects
	// a base from another incarnation even when the epoch numbers collide.
	Gen uint64
	// PoliciesChanged flags a replacement of the policy list (rare: policy
	// set edits); Policies is only read when it is true.
	PoliciesChanged bool
	Policies        []PolicyInfo
	Configs         []ConfigPatch
	RemovedConfigs  []policy.ConfigKey
	Items           []Item
	RemovedItems    []string
}

// Errors returned by Diff and Apply.
var (
	ErrDeltaDocMismatch  = errors.New("pubsub: delta document does not match state")
	ErrDeltaBaseMismatch = errors.New("pubsub: delta base epoch does not match state (refetch a snapshot)")
)

// Diff computes the delta that turns the base broadcast into cur. Both must
// be broadcasts of the same document with base.Epoch < cur.Epoch; the
// revisions stamped by Publish decide what travels. Clean grouped shards are
// referenced by their index in the base configuration, located by the name
// of the solve they hold, so the delta depends on the material alone: Diff
// over decoded copies of two broadcasts ships what Diff over the originals
// does.
func Diff(base, cur *Broadcast) (*BroadcastDelta, error) {
	if base == nil || cur == nil {
		return nil, errors.New("pubsub: nil broadcast")
	}
	if base.DocName != cur.DocName {
		return nil, ErrDeltaDocMismatch
	}
	if base.Epoch >= cur.Epoch {
		return nil, fmt.Errorf("pubsub: delta base epoch %d not before %d", base.Epoch, cur.Epoch)
	}
	if base.Gen != cur.Gen {
		return nil, fmt.Errorf("pubsub: delta across publisher generations %d and %d", base.Gen, cur.Gen)
	}
	d := &BroadcastDelta{DocName: cur.DocName, BaseEpoch: base.Epoch, Epoch: cur.Epoch, Gen: cur.Gen}
	if !reflect.DeepEqual(base.Policies, cur.Policies) {
		d.PoliciesChanged = true
		d.Policies = cur.Policies
	}

	baseCfg := make(map[policy.ConfigKey]*ConfigInfo, len(base.Configs))
	for i := range base.Configs {
		baseCfg[base.Configs[i].Key] = &base.Configs[i]
	}
	curKeys := make(map[policy.ConfigKey]bool, len(cur.Configs))
	for i := range cur.Configs {
		ci := &cur.Configs[i]
		curKeys[ci.Key] = true
		bc := baseCfg[ci.Key]
		if bc != nil && ci.Rev <= base.Epoch {
			continue // unchanged since the base epoch
		}
		patch := ConfigPatch{Key: ci.Key, Rev: ci.Rev, Header: ci.Header}
		if ci.Grouped != nil {
			if len(ci.ShardRevs) != len(ci.Grouped.Shards) {
				return nil, fmt.Errorf("pubsub: configuration %q has %d shard revisions for %d shards", ci.Key, len(ci.ShardRevs), len(ci.Grouped.Shards))
			}
			patch.Grouped = groupedPatch(ci, bc, base.Epoch)
		}
		d.Configs = append(d.Configs, patch)
	}
	for i := range base.Configs {
		if !curKeys[base.Configs[i].Key] {
			d.RemovedConfigs = append(d.RemovedConfigs, base.Configs[i].Key)
		}
	}

	baseItems := make(map[string]bool, len(base.Items))
	for i := range base.Items {
		baseItems[base.Items[i].Subdoc] = true
	}
	curItems := make(map[string]bool, len(cur.Items))
	for i := range cur.Items {
		it := &cur.Items[i]
		curItems[it.Subdoc] = true
		if baseItems[it.Subdoc] && it.Rev <= base.Epoch {
			continue
		}
		d.Items = append(d.Items, *it)
	}
	for i := range base.Items {
		if !curItems[base.Items[i].Subdoc] {
			d.RemovedItems = append(d.RemovedItems, base.Items[i].Subdoc)
		}
	}
	return d, nil
}

// DiffBase returns a copy of b holding only what Diff reads of a base: the
// document, epoch, generation and policies, each configuration's key,
// revision, grouped header and shard revisions, and each item's subdocument
// and revision. An ungrouped configuration's header and every ciphertext —
// the bulk of a broadcast — are left out, so Diff(b.DiffBase(), cur) equals
// Diff(b, cur) at a fraction of the memory. b itself is not modified.
func (b *Broadcast) DiffBase() *Broadcast {
	d := &Broadcast{DocName: b.DocName, Epoch: b.Epoch, Gen: b.Gen, Policies: b.Policies,
		Configs: make([]ConfigInfo, len(b.Configs)), Items: make([]Item, len(b.Items))}
	for i, c := range b.Configs {
		d.Configs[i] = ConfigInfo{Key: c.Key, Rev: c.Rev, Grouped: c.Grouped, ShardRevs: c.ShardRevs}
	}
	for i, it := range b.Items {
		d.Items[i] = Item{Subdoc: it.Subdoc, Rev: it.Rev}
	}
	return d
}

// groupedPatch expresses one grouped configuration against its base
// revision: clean shards (rev ≤ base epoch, their solve present in the base
// under the same revision) become index references, the rest ship their
// sub-header and revision.
func groupedPatch(ci, bc *ConfigInfo, baseEpoch uint64) *GroupedPatch {
	g := ci.Grouped
	p := &GroupedPatch{
		RekeyNonce: g.RekeyNonce,
		Wraps:      make([]ff64.Elem, len(g.Shards)),
		From:       make([]int, len(g.Shards)),
	}
	base := baseShards(bc)
	for i, sh := range g.Shards {
		p.Wraps[i] = sh.Wrap
		rev := ci.ShardRevs[i]
		if rev <= baseEpoch {
			if j, ok := base.find(i, sh.Hdr); ok && bc.ShardRevs[j] == rev {
				p.From[i] = j
				continue
			}
		}
		p.From[i] = -1
		p.Headers = append(p.Headers, sh.Hdr)
		p.Revs = append(p.Revs, rev)
	}
	return p
}

// shardIndex locates solves among the shards of a base configuration by
// name: at the same index until one misses, then through a name-keyed map.
// One object holds one solve, so a shard that is the base's object at its
// own index is found without hashing either; objects that differ — decoded,
// restored or replayed copies — are told apart by their names alone.
type shardIndex struct {
	shards []core.GroupShard
	byName map[uint64]int
}

// baseShards indexes the shards of bc, a configuration of a diff base; one
// without a revision for each of its shards can back no reference.
func baseShards(bc *ConfigInfo) *shardIndex {
	x := &shardIndex{}
	if bc != nil && bc.Grouped != nil && len(bc.ShardRevs) == len(bc.Grouped.Shards) {
		x.shards = bc.Grouped.Shards
	}
	return x
}

// find returns the index of the base shard holding h's solve, h being the
// shard at index i of the configuration diffed against the base.
func (x *shardIndex) find(i int, h *core.Header) (int, bool) {
	if len(x.shards) == 0 {
		return 0, false
	}
	if i < len(x.shards) && x.shards[i].Hdr == h {
		return i, true
	}
	name := h.Name()
	if x.byName == nil {
		if i < len(x.shards) && x.shards[i].Hdr.Name() == name {
			return i, true
		}
		x.byName = make(map[uint64]int, len(x.shards))
		for j, sh := range x.shards {
			x.byName[sh.Hdr.Name()] = j
		}
	}
	j, ok := x.byName[name]
	return j, ok
}

// Apply produces the broadcast state at d.Epoch from the base state. It
// validates that the base matches the delta's document and base epoch and
// never mutates its input: unchanged configurations, shards and items are
// shared between the two broadcasts, so a subscriber's cached KEVs (keyed by
// sub-header content) stay valid across patches. A patched grouped
// configuration's shard revisions are derived: a kept shard's from the base,
// a shipped one's from the patch.
func (d *BroadcastDelta) Apply(base *Broadcast) (*Broadcast, error) {
	if base == nil {
		return nil, errors.New("pubsub: nil base broadcast")
	}
	if base.DocName != d.DocName {
		return nil, ErrDeltaDocMismatch
	}
	if base.Epoch != d.BaseEpoch {
		return nil, fmt.Errorf("%w: state at epoch %d, delta base %d", ErrDeltaBaseMismatch, base.Epoch, d.BaseEpoch)
	}
	if base.Gen != d.Gen {
		return nil, fmt.Errorf("%w: state from publisher generation %d, delta from %d", ErrDeltaBaseMismatch, base.Gen, d.Gen)
	}
	out := &Broadcast{
		DocName:  base.DocName,
		Epoch:    d.Epoch,
		Gen:      d.Gen,
		Policies: base.Policies,
		Configs:  append([]ConfigInfo(nil), base.Configs...),
		Items:    append([]Item(nil), base.Items...),
	}
	if d.PoliciesChanged {
		out.Policies = d.Policies
	}

	cfgIdx := make(map[policy.ConfigKey]int, len(out.Configs))
	for i := range out.Configs {
		cfgIdx[out.Configs[i].Key] = i
	}
	for _, patch := range d.Configs {
		ci := ConfigInfo{Key: patch.Key, Rev: patch.Rev, Header: patch.Header}
		if patch.Grouped != nil {
			var bc *ConfigInfo
			if i, ok := cfgIdx[patch.Key]; ok {
				// Resolve clean-shard references against the BASE config
				// (base.Configs and out.Configs share elements until
				// patched, and each config is patched at most once per
				// delta, so the lookup still sees the base material).
				bc = &out.Configs[i]
			}
			var err error
			if ci.Grouped, ci.ShardRevs, err = patch.Grouped.rebuild(bc); err != nil {
				return nil, fmt.Errorf("pubsub: patching configuration %q: %w", patch.Key, err)
			}
		}
		if i, ok := cfgIdx[patch.Key]; ok {
			out.Configs[i] = ci
		} else {
			cfgIdx[patch.Key] = len(out.Configs)
			out.Configs = append(out.Configs, ci)
		}
	}
	if len(d.RemovedConfigs) > 0 {
		removed := make(map[policy.ConfigKey]bool, len(d.RemovedConfigs))
		for _, k := range d.RemovedConfigs {
			removed[k] = true
		}
		kept := out.Configs[:0:0]
		for _, ci := range out.Configs {
			if !removed[ci.Key] {
				kept = append(kept, ci)
			}
		}
		out.Configs = kept
	}
	// Keep the deterministic configuration order Publish emits, so a patched
	// state and a fresh fetch agree structurally.
	sort.Slice(out.Configs, func(i, j int) bool { return out.Configs[i].Key < out.Configs[j].Key })

	itemIdx := make(map[string]int, len(out.Items))
	for i := range out.Items {
		itemIdx[out.Items[i].Subdoc] = i
	}
	for _, it := range d.Items {
		if i, ok := itemIdx[it.Subdoc]; ok {
			out.Items[i] = it
		} else {
			itemIdx[it.Subdoc] = len(out.Items)
			out.Items = append(out.Items, it)
		}
	}
	if len(d.RemovedItems) > 0 {
		removed := make(map[string]bool, len(d.RemovedItems))
		for _, name := range d.RemovedItems {
			removed[name] = true
		}
		kept := out.Items[:0:0]
		for _, it := range out.Items {
			if !removed[it.Subdoc] {
				kept = append(kept, it)
			}
		}
		out.Items = kept
	}
	return out, nil
}

// rebuild reconstructs the full grouped header and its shard revisions from
// a patch and the base configuration (nil when the configuration is new;
// without a grouped header every shard must ship its sub-header).
func (p *GroupedPatch) rebuild(bc *ConfigInfo) (*core.GroupedHeader, []uint64, error) {
	if len(p.Wraps) != len(p.From) {
		return nil, nil, fmt.Errorf("%d wraps for %d shards", len(p.Wraps), len(p.From))
	}
	if len(p.Revs) != len(p.Headers) {
		return nil, nil, fmt.Errorf("%d revisions for %d shipped sub-headers", len(p.Revs), len(p.Headers))
	}
	var base []core.GroupShard
	if bc != nil && bc.Grouped != nil {
		base = bc.Grouped.Shards
		if len(bc.ShardRevs) != len(base) {
			return nil, nil, fmt.Errorf("base holds %d shard revisions for %d shards", len(bc.ShardRevs), len(base))
		}
	}
	g := &core.GroupedHeader{RekeyNonce: p.RekeyNonce, Shards: make([]core.GroupShard, len(p.From))}
	revs := make([]uint64, len(p.From))
	next := 0
	for i, from := range p.From {
		var hdr *core.Header
		switch {
		case from < 0:
			if next >= len(p.Headers) {
				return nil, nil, errors.New("patch ships fewer sub-headers than it references")
			}
			hdr, revs[i] = p.Headers[next], p.Revs[next]
			next++
		case base == nil:
			return nil, nil, errors.New("patch references base shards but the state has no grouped header")
		case from >= len(base):
			return nil, nil, fmt.Errorf("patch references base shard %d of %d", from, len(base))
		default:
			hdr, revs[i] = base[from].Hdr, bc.ShardRevs[from]
		}
		g.Shards[i] = core.GroupShard{Hdr: hdr, Wrap: p.Wraps[i]}
	}
	if next != len(p.Headers) {
		return nil, nil, fmt.Errorf("patch ships %d sub-headers, references %d", len(p.Headers), next)
	}
	return g, revs, nil
}
