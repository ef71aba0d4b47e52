package pubsub

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"ppcd/internal/core"
	"ppcd/internal/document"
	"ppcd/internal/policy"
	"ppcd/internal/sym"
)

// PolicyInfo describes one policy inside a broadcast so subscribers know
// which conditions (in which order) derive each configuration key.
type PolicyInfo struct {
	ID      string
	CondIDs []string
}

// ConfigInfo carries the rekey header for one policy configuration: Header
// in the classic one-ACV mode, Grouped when the publisher shards subscriber
// rows (§VIII-C, Options.GroupSize). Both are nil for configurations nobody
// can access (empty configuration or no qualified subscriber rows).
type ConfigInfo struct {
	Key     policy.ConfigKey
	Header  *core.Header
	Grouped *core.GroupedHeader

	// Rev is the epoch at which this configuration's header (and therefore
	// its key) last changed; a configuration untouched since epoch e keeps
	// Rev = e across later publishes, which is what lets the delta layer
	// skip it entirely.
	Rev uint64
	// ShardRevs, parallel to Grouped.Shards, is the epoch at which each
	// shard's sub-header last re-solved. After a single-leave rekey only the
	// dirty shard's entry advances: clean shards keep their sub-headers
	// (and the subscribers their cached KEVs), so a delta ships one small
	// sub-header plus the per-shard wraps instead of the whole header.
	ShardRevs []uint64
}

// Item is one encrypted subdocument.
type Item struct {
	Subdoc     string
	Config     policy.ConfigKey
	Ciphertext []byte
	// Rev is the epoch at which this ciphertext last changed (fresh
	// configuration key or new plaintext). While both stay put, republishes
	// carry the previous bytes forward and deltas skip the item.
	Rev uint64
}

// Broadcast is the complete selectively-encrypted document package sent to
// all subscribers. Everything in it is public.
type Broadcast struct {
	DocName string
	// Epoch is the publisher-wide monotonic publish counter; every Publish
	// stamps the next epoch. Deltas are expressed between two epochs of the
	// same document.
	Epoch uint64
	// Gen identifies the publisher incarnation that numbered the epoch: a
	// restarted publisher begins a fresh epoch sequence under a fresh random
	// generation, so a subscriber holding pre-restart state can never match
	// a post-restart delta's base epoch by numeric coincidence.
	Gen      uint64
	Policies []PolicyInfo
	Configs  []ConfigInfo
	Items    []Item
}

// lastBroadcast is the publisher's per-document diff base: the previous
// broadcast (revisions filled in) plus the plaintext digests that decide
// whether an item's ciphertext may be carried forward.
type lastBroadcast struct {
	b       *Broadcast
	digests map[string][32]byte // subdoc → SHA-256 of plaintext
}

// Publish encrypts a document according to the publisher's policies and
// returns the broadcast package. Publishing IS the rekey operation: any
// table mutation since the previous publish (join, revocation, credential
// update) causes every affected configuration to receive a fresh ACV header
// and key, while untouched configurations reuse their cached ones — the
// paper's "rekey only on membership change" semantics, with no message ever
// addressed to an individual subscriber.
//
// Publish never blocks registration traffic: it reads a consistent table
// snapshot under a read lock and performs all crypto outside any lock, so
// concurrent RegisterBatch/Revoke* calls proceed while ACVs are being solved.
//
// Each broadcast is stamped with the next epoch and with per-configuration
// (and per-shard) revisions derived from the engine's cache state, so the
// delta layer (Diff) can ship only what changed since any retained base
// epoch. Items whose configuration key and plaintext are both unchanged
// carry the previous ciphertext forward — a steady-state republish is then
// byte-identical except for the epoch, and its delta is empty.
//
// The returned broadcast is retained by the publisher as the next diff base
// and must be treated as immutable by callers.
func (p *Publisher) Publish(doc *document.Document) (*Broadcast, error) {
	if doc == nil || len(doc.Subdocs) == 0 {
		return nil, errors.New("pubsub: empty document")
	}
	// Names land in the durable state (diff bases, journal events); enforce
	// the state format's caps here so every accepted publish round-trips.
	if len(doc.Name) == 0 || len(doc.Name) > maxStateCondLen {
		return nil, fmt.Errorf("pubsub: document name of %d bytes (want 1..%d)", len(doc.Name), maxStateCondLen)
	}
	for _, sd := range doc.Subdocs {
		if len(sd.Name) > maxStateCondLen {
			return nil, fmt.Errorf("pubsub: subdocument name of %d bytes exceeds the %d limit", len(sd.Name), maxStateCondLen)
		}
	}

	relevant := p.policiesFor(doc.Name)
	cfgs := policy.Configurations(doc.Names(), relevant)

	b := &Broadcast{DocName: doc.Name}
	for _, a := range relevant {
		b.Policies = append(b.Policies, PolicyInfo{ID: a.ID, CondIDs: a.CondIDs()})
	}

	// Snapshot each policy's qualified subscriber rows once: policies
	// typically appear in several configurations (acp3 covers four in the
	// paper's Example 4), and scanning table T per configuration would redo
	// that work (§VIII-A: eliminate redundant calculations at the Pub).
	var infos []ConfigInfo
	var keys map[policy.ConfigKey][sym.KeySize]byte
	var secrets sessionSecrets
	var err error
	if p.opts.GroupSize > 0 {
		var shards map[string][]core.ShardSpec
		if shards, err = p.reg.snapshotGrouped(relevant, p.keys.engine.Lease); err == nil {
			infos, keys, secrets, err = p.keys.configKeysGrouped(cfgs, shards)
		}
	} else {
		rowsByACP, vers := p.reg.snapshot(relevant)
		infos, keys, secrets, err = p.keys.configKeys(cfgs, rowsByACP, vers)
	}
	if err != nil {
		return nil, err
	}
	b.Configs = infos

	cfgOf := make(map[string]policy.ConfigKey)
	for k, subs := range cfgs {
		for _, sd := range subs {
			cfgOf[sd] = k
		}
	}

	// Plaintext digests are independent of the previous broadcast; hash
	// outside the lock so concurrent publishes of different documents do
	// not serialize on content size.
	digests := make(map[string][32]byte, len(doc.Subdocs))
	for _, sd := range doc.Subdocs {
		digests[sd.Name] = sha256.Sum256(sd.Content)
	}

	// Epoch stamping and item assembly run under the publish lock: revisions
	// are derived against the previous broadcast of the same document, and
	// unchanged items carry their ciphertext forward instead of being
	// re-encrypted (so only *changed* items pay AEAD cost here — a
	// steady-state publish encrypts nothing). The lock is independent of
	// the registry's, so registration traffic still proceeds; only
	// concurrent Publish calls serialize here.
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	b.Epoch = p.epoch + 1
	b.Gen = p.gen
	prev := p.lastPub[doc.Name]
	stampConfigRevs(b, prev)

	revOf := make(map[policy.ConfigKey]uint64, len(b.Configs))
	for _, ci := range b.Configs {
		revOf[ci.Key] = ci.Rev
	}
	var prevItems map[string]*Item
	if prev != nil {
		prevItems = make(map[string]*Item, len(prev.b.Items))
		for i := range prev.b.Items {
			prevItems[prev.b.Items[i].Subdoc] = &prev.b.Items[i]
		}
	}
	for _, sd := range doc.Subdocs {
		k := cfgOf[sd.Name]
		digest := digests[sd.Name]
		if pi, ok := prevItems[sd.Name]; ok && pi.Config == k && revOf[k] < b.Epoch && prev.digests[sd.Name] == digest {
			// Same configuration key, same plaintext: the previous ciphertext
			// still decrypts, so carry it (and its revision) forward.
			b.Items = append(b.Items, Item{Subdoc: sd.Name, Config: k, Ciphertext: pi.Ciphertext, Rev: pi.Rev})
			continue
		}
		ct, err := sym.Encrypt(keys[k], sd.Content)
		if err != nil {
			return nil, err
		}
		b.Items = append(b.Items, Item{Subdoc: sd.Name, Config: k, Ciphertext: ct, Rev: b.Epoch})
	}
	// Journal the publish before the broadcast escapes: after a crash the
	// restored counter must stay ahead of every epoch subscribers have seen
	// under this generation, or a restarted publisher could re-number, and
	// the record's outcome restores this broadcast as the diff base and what
	// the session solved into the engine cache. The epoch and the diff base
	// are committed only once the record is durable, so a journal failure
	// leaves them as they were.
	cur := &lastBroadcast{b: b, digests: digests}
	if err := p.journalPublish(prev, cur, secrets); err != nil {
		return nil, err
	}
	p.epoch = b.Epoch
	p.lastPub[doc.Name] = cur
	return b, nil
}

// stampConfigRevs fills Rev and ShardRevs for every configuration of a fresh
// broadcast against the previous broadcast of the same document. A
// configuration is unchanged when its header holds the solve — its grouped
// header the assembly — the previous one held, as their names tell; two nil
// headers (an inaccessible configuration staying inaccessible) also compare
// unchanged, since nobody can decrypt it at either epoch. A reassembled
// grouped header's shards that hold a solve the previous one held inherit
// the revision they last solved at.
func stampConfigRevs(b *Broadcast, prev *lastBroadcast) {
	var prevCfg map[policy.ConfigKey]*ConfigInfo
	if prev != nil {
		prevCfg = make(map[policy.ConfigKey]*ConfigInfo, len(prev.b.Configs))
		for i := range prev.b.Configs {
			prevCfg[prev.b.Configs[i].Key] = &prev.b.Configs[i]
		}
	}
	for i := range b.Configs {
		ci := &b.Configs[i]
		pc := prevCfg[ci.Key]
		if pc != nil && pc.Header.Name() == ci.Header.Name() && pc.Grouped.Name() == ci.Grouped.Name() {
			ci.Rev = pc.Rev
			ci.ShardRevs = pc.ShardRevs
			continue
		}
		ci.Rev = b.Epoch
		if ci.Grouped == nil {
			continue
		}
		prevShards := baseShards(pc)
		revs := make([]uint64, len(ci.Grouped.Shards))
		for j, sh := range ci.Grouped.Shards {
			if k, ok := prevShards.find(j, sh.Hdr); ok {
				revs[j] = pc.ShardRevs[k]
			} else {
				revs[j] = b.Epoch
			}
		}
		ci.ShardRevs = revs
	}
}

// Epoch returns the epoch of the most recent Publish (0 before the first).
func (p *Publisher) Epoch() uint64 {
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	return p.epoch
}

// LastBroadcast returns the most recent broadcast published for the named
// document (nil if none). Like the return value of Publish, it must be
// treated as immutable.
func (p *Publisher) LastBroadcast(docName string) *Broadcast {
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	if lb, ok := p.lastPub[docName]; ok {
		return lb.b
	}
	return nil
}

// policiesFor returns the policies applying to the named document (policies
// with an empty Doc apply to every document).
func (p *Publisher) policiesFor(docName string) []*policy.ACP {
	var out []*policy.ACP
	for _, a := range p.acps {
		if a.Doc == "" || a.Doc == docName {
			out = append(out, a)
		}
	}
	return out
}
