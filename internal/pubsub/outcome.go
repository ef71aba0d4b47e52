package pubsub

import (
	"fmt"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/policy"
)

// This file is a publish's journal outcome: what the WAL record of a publish
// carries beyond its epoch so that replaying it after a crash restores the
// document's diff base and the engine cache as of that epoch. A crash then
// costs what a clean stop costs — the first publish after recovery re-solves
// only shards a mutation journaled after the last publish touched, and a
// subscriber holding the pre-crash epoch catches up with a one-epoch delta.

// PublishOutcome is what one publish produced, as its journal record holds it.
type PublishOutcome struct {
	// Delta turns the document's previous diff base into the broadcast: what
	// Diff ships (config patches with every wrap, re-solved sub-headers,
	// changed items). BaseEpoch 0 means the document had no diff base, and
	// everything travels.
	Delta *BroadcastDelta
	// Digests are the plaintext digests the diff base keeps (subdocument →
	// SHA-256), which decide whether a later publish may carry an item's
	// ciphertext forward.
	Digests map[string][32]byte
	// Configs and Shards are the entries the publish's rekey session created
	// in the engine cache. Their headers are in Delta.
	Configs []SolvedConfig
	Shards  []SolvedShard
}

// SolvedConfig is one configuration a rekey session rebuilt: its engine cache
// ID (the key of the configuration whose build it is, §VIII-B), its key K,
// and what recomputes its cache signature — the membership signature of an
// ungrouped configuration, the shard IDs in header order of a grouped one
// (the signature is then theirs, core.Engine.Install). SECRET (Key).
type SolvedConfig struct {
	ID     string
	Key    ff64.Elem
	Sig    string
	Shards []string
}

// SolvedShard is one shard a rekey session solved: its ID, the signature of
// its rows and its group key S_i. Its sub-header is the one Delta ships for
// the first slot of a rebuilt configuration naming it. SECRET (Key).
type SolvedShard struct {
	ID  string
	Sig string
	Key ff64.Elem
}

// publishOutcome builds the outcome of the publish of cur over the diff base
// prev (nil when the document has none). It returns nil — the record then
// carries the epoch alone — if the broadcast cannot be expressed against the
// base.
func publishOutcome(prev, cur *lastBroadcast, secrets sessionSecrets) *PublishOutcome {
	base := emptyBase(cur.b.DocName, cur.b.Gen)
	if prev != nil {
		base = prev.b
	}
	d, err := Diff(base, cur.b)
	if err != nil {
		return nil
	}
	o := &PublishOutcome{Delta: d, Digests: cur.digests}
	o.Configs, o.Shards = secrets()
	return o
}

// emptyBase is the diff base of a document nothing was published of: epoch 0,
// no configuration, no item.
func emptyBase(doc string, gen uint64) *Broadcast {
	return &Broadcast{DocName: doc, Gen: gen}
}

// replayPublish restores a journaled publish's outcome; the caller holds
// pubMu. A record whose epoch is not newer than its document's restored diff
// base is skipped whole — the base already holds it, which is what keeps
// replay idempotent over a snapshot taken after it. One whose delta extends
// another base (the record before it carried its epoch alone, or another
// incarnation wrote it) replays as its epoch alone: the base stays behind and
// the next publish diffs against it, as after any recovery that lost a
// broadcast. Otherwise the delta is applied with the Apply subscribers use,
// the session's entries return to the engine cache, and the applied broadcast
// becomes the diff base: the next publish tells its configurations unchanged
// by the names of the solves they hold, whichever objects hold them.
func (p *Publisher) replayPublish(ev StateEvent) error {
	o := ev.Outcome
	if o == nil {
		return nil
	}
	d := o.Delta
	if d == nil || d.DocName != ev.Doc || d.Epoch != ev.Epoch {
		return fmt.Errorf("pubsub: publish outcome does not match its event (%q at epoch %d)", ev.Doc, ev.Epoch)
	}
	base := emptyBase(ev.Doc, p.gen)
	if lb := p.lastPub[ev.Doc]; lb != nil {
		base = lb.b
	}
	if ev.Epoch <= base.Epoch || d.Gen != p.gen || d.BaseEpoch != base.Epoch {
		return nil
	}
	b, err := d.Apply(base)
	if err != nil {
		return fmt.Errorf("pubsub: replaying the publish of %q at epoch %d: %w", ev.Doc, ev.Epoch, err)
	}
	cfgs, shards, grouped, err := solvedEntries(b, o)
	if err == nil {
		err = p.keys.engine.Install(cfgs, shards, grouped)
	}
	if err != nil {
		return fmt.Errorf("pubsub: replaying the publish of %q at epoch %d: %w", ev.Doc, ev.Epoch, err)
	}
	p.lastPub[ev.Doc] = &lastBroadcast{b: b, digests: o.Digests}
	return nil
}

// solvedEntries turns an outcome's secrets into engine cache entries whose
// headers are the applied broadcast b's: a rebuilt configuration's is its
// own configuration's, a solved shard's the sub-header of the first rebuilt
// slot naming it.
func solvedEntries(b *Broadcast, o *PublishOutcome) ([]core.CachedConfig, []core.CachedShard, []core.CachedGrouped, error) {
	idx := make(map[policy.ConfigKey]int, len(b.Configs))
	for i := range b.Configs {
		idx[b.Configs[i].Key] = i
	}
	var cfgs []core.CachedConfig
	var grouped []core.CachedGrouped
	subHdr := make(map[string]*core.Header, len(o.Shards))
	for _, s := range o.Shards {
		subHdr[s.ID] = nil
	}
	for _, sc := range o.Configs {
		i, ok := idx[policy.ConfigKey(sc.ID)]
		if !ok {
			return nil, nil, nil, fmt.Errorf("solved configuration %q is not in the broadcast", sc.ID)
		}
		ci := &b.Configs[i]
		switch {
		case ci.Grouped != nil && len(sc.Shards) == len(ci.Grouped.Shards):
			g := core.CachedGrouped{ID: sc.ID, Key: sc.Key, RekeyNonce: ci.Grouped.RekeyNonce, Shards: make([]core.CachedGroupedShard, len(sc.Shards))}
			for k, id := range sc.Shards {
				g.Shards[k] = core.CachedGroupedShard{ShardID: id, Wrap: ci.Grouped.Shards[k].Wrap}
				if h, ok := subHdr[id]; ok && h == nil {
					subHdr[id] = ci.Grouped.Shards[k].Hdr
				}
			}
			grouped = append(grouped, g)
		case ci.Header != nil && len(sc.Shards) == 0:
			cfgs = append(cfgs, core.CachedConfig{ID: sc.ID, Sig: sc.Sig, Hdr: ci.Header, Key: sc.Key})
		default:
			return nil, nil, nil, fmt.Errorf("solved configuration %q does not match its header", sc.ID)
		}
	}
	shards := make([]core.CachedShard, len(o.Shards))
	for i, s := range o.Shards {
		h := subHdr[s.ID]
		if h == nil {
			return nil, nil, nil, fmt.Errorf("solved shard %q is in no rebuilt configuration", s.ID)
		}
		shards[i] = core.CachedShard{ID: s.ID, Sig: s.Sig, Hdr: h, Key: s.Key}
	}
	return cfgs, shards, grouped, nil
}
