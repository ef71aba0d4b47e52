package pubsub

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"slices"
	"sort"
	"sync/atomic"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/policy"
	"ppcd/internal/sym"
)

// keyManager is the publisher's key layer: it turns a registry snapshot into
// per-configuration headers and symmetric keys by driving the core rekey
// engine, in either the classic one-ACV-per-configuration mode or the
// grouped (§VIII-C) mode where each policy's rows are sharded and only
// dirty shards re-solve. All caching policy lives here — an ungrouped
// configuration's cache signature digests its member policies' membership
// versions, a shard's digests its content, and a grouped configuration is
// reused when its slots hold the solves its shards lease — so a configuration
// is re-solved exactly when a table mutation could have changed its
// subscriber set: the paper's "rekey only on membership change" semantics
// with zero redundant null-space solves (§VIII-A).
//
// The keymgr also applies §VIII-B configuration dominance: when a
// configuration's qualified rows all come from a subset of its policies and
// another configuration consists of exactly that subset, the dominating
// configuration's solve is reused instead of solving twice (the two
// configurations have identical authorized sets, so sharing the key is
// sound).
type keyManager struct {
	engine   *core.Engine
	minN     int
	domSkips atomic.Uint64
}

func newKeyManager(workers, minN int) *keyManager {
	return &keyManager{engine: core.NewEngine(workers), minN: minN}
}

// Stats are the publisher's rekey work counters: the engine's solve/cache
// counters plus the keymgr's dominance reuse count.
type Stats struct {
	core.EngineStats
	// DominanceSkips counts solves actually avoided by reusing a dominating
	// configuration's fresh build instead of solving twice (§VIII-B);
	// cache-hit publishes don't inflate it.
	DominanceSkips uint64
	// FullRegroups counts grouped snapshots of one policy that fell back to
	// a scan of table T (the policy's first publish, dropped conditions)
	// instead of advancing through churn hints.
	FullRegroups uint64
}

// stats exposes the engine's work counters plus dominance skips.
func (km *keyManager) stats() Stats {
	return Stats{EngineStats: km.engine.Stats(), DominanceSkips: km.domSkips.Load()}
}

// reset drops all cached builds (ResetRekeyCache).
func (km *keyManager) reset() { km.engine.Reset() }

// configSig builds, in d, the membership signature of one configuration from
// the snapshot version vector: its policies with their versions, its row
// count and the header capacity floor.
func configSig(d *sigHash, key policy.ConfigKey, vers map[string]uint64, rowCount, minN int) core.Sig {
	for _, id := range key.IDs() {
		d.str(id)
		d.num(vers[id])
	}
	d.num(uint64(rowCount))
	d.num(uint64(minN))
	return d.sum()
}

// sigHash is a SHA-256 over fields, strings length-prefixed so that crafted
// names cannot collide across field boundaries: every cache signature and
// bucket digest of this package. Fields pass through its own buffer, so
// feeding one allocates nothing; sum resets it for the next digest.
type sigHash struct {
	h   hash.Hash
	buf [sha256.BlockSize]byte
}

func newSigHash() *sigHash { return &sigHash{h: sha256.New()} }

func (d *sigHash) num(v uint64) {
	binary.BigEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:8])
}

func (d *sigHash) str(s string) {
	d.num(uint64(len(s)))
	for len(s) > 0 {
		n := copy(d.buf[:], s)
		d.h.Write(d.buf[:n])
		s = s[n:]
	}
}

func (d *sigHash) sum() core.Sig {
	defer d.h.Reset()
	return core.Sig(d.h.Sum(d.buf[:0]))
}

// sortedConfigs returns the configuration keys in deterministic order.
func sortedConfigs(cfgs map[policy.ConfigKey][]string) []policy.ConfigKey {
	keys := make([]policy.ConfigKey, 0, len(cfgs))
	for k := range cfgs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// splitByDominance walks the configurations in deterministic order and
// partitions them by §VIII-B dominance: solo configurations build their own
// ACV, aliases reuse a dominating configuration's build, throwaway ones are
// inaccessible (empty configuration or no qualified rows). A configuration
// whose ID set equals its effective (non-empty-row) policy set dominates
// every other configuration sharing that effective set (its IDs are a
// subset of theirs, via policy.Dominates), and their subscriber row sets
// coincide because the extra policies contribute no rows — identical
// authorized sets, so one solve serves both.
func (km *keyManager) splitByDominance(cfgs map[policy.ConfigKey][]string, hasRows func(acpID string) bool) (solo, throwaway []policy.ConfigKey, aliases map[policy.ConfigKey]policy.ConfigKey) {
	type plan struct{ key, eff policy.ConfigKey }
	var plans []plan
	reps := make(map[policy.ConfigKey]policy.ConfigKey)
	for _, key := range sortedConfigs(cfgs) {
		var nonEmpty []string
		for _, acpID := range key.IDs() {
			if hasRows(acpID) {
				nonEmpty = append(nonEmpty, acpID)
			}
		}
		if key == policy.EmptyConfig || len(nonEmpty) == 0 {
			throwaway = append(throwaway, key)
			continue
		}
		p := plan{key: key, eff: policy.ConfigOf(nonEmpty...)}
		if p.key == p.eff {
			reps[p.eff] = p.key
		}
		plans = append(plans, p)
	}
	aliases = make(map[policy.ConfigKey]policy.ConfigKey)
	for _, p := range plans {
		if rep, ok := reps[p.eff]; ok && rep != p.key && policy.Dominates(rep, p.key) {
			aliases[p.key] = rep
			continue
		}
		solo = append(solo, p.key)
	}
	return solo, throwaway, aliases
}

// noteDominanceSkip counts one solve actually avoided by §VIII-B reuse: an
// alias only skips work when its representative was freshly rebuilt this
// publish (a cache-hit representative would have cost nothing either way,
// and counting those would make the metric scale with steady-state rounds).
func (km *keyManager) noteDominanceSkip(key, rep policy.ConfigKey, rebuilt bool) {
	if key != rep && rebuilt {
		km.domSkips.Add(1)
	}
}

// throwawayInfo encrypts an inaccessible configuration (empty configuration
// or no qualified rows) under a fresh key nobody can derive (paper
// Example 4, Pc6).
func throwawayInfo(key policy.ConfigKey, keys map[policy.ConfigKey][sym.KeySize]byte) (ConfigInfo, error) {
	k, err := ff64.RandNonZero()
	if err != nil {
		return ConfigInfo{}, err
	}
	keys[key] = core.ExpandKey(k)
	return ConfigInfo{Key: key}, nil
}

// assemble folds the throwaway configurations plus the built solo/alias
// configurations into the final ordered ConfigInfo list and key map. info
// maps one built configuration (solo's own build, or the alias's
// representative build) to its ConfigInfo.
func assemble(cfgs map[policy.ConfigKey][]string, throwaway []policy.ConfigKey, solo []policy.ConfigKey, aliases map[policy.ConfigKey]policy.ConfigKey, info func(key, rep policy.ConfigKey) (ConfigInfo, ff64.Elem)) ([]ConfigInfo, map[policy.ConfigKey][sym.KeySize]byte, error) {
	keys := make(map[policy.ConfigKey][sym.KeySize]byte, len(cfgs))
	infos := make([]ConfigInfo, 0, len(cfgs))
	for _, key := range throwaway {
		ti, err := throwawayInfo(key, keys)
		if err != nil {
			return nil, nil, err
		}
		infos = append(infos, ti)
	}
	add := func(key, rep policy.ConfigKey) {
		ci, k := info(key, rep)
		keys[key] = core.ExpandKey(k)
		infos = append(infos, ci)
	}
	for _, key := range solo {
		add(key, key)
	}
	for key, rep := range aliases {
		add(key, rep)
	}
	// Restore the deterministic configuration order (throwaway and
	// dominated configs were appended out of order).
	sort.Slice(infos, func(i, j int) bool { return infos[i].Key < infos[j].Key })
	return infos, keys, nil
}

// sessionSecrets lists the cache entries one publish's rekey session created
// — the configurations it rebuilt and the shards it solved, the secret half of
// the publish's journal record. Publish calls it only when a journal is
// attached.
type sessionSecrets func() ([]SolvedConfig, []SolvedShard)

// configKeys produces the ordered ConfigInfo list and the symmetric key per
// configuration for one publish, given an ungrouped registry snapshot.
func (km *keyManager) configKeys(cfgs map[policy.ConfigKey][]string, rowsByACP map[string][][]core.CSS, vers map[string]uint64) ([]ConfigInfo, map[policy.ConfigKey][sym.KeySize]byte, sessionSecrets, error) {
	solo, throwaway, aliases := km.splitByDominance(cfgs, func(acpID string) bool { return len(rowsByACP[acpID]) > 0 })

	specs := make([]core.ConfigSpec, 0, len(solo))
	d := newSigHash()
	for _, key := range solo {
		rowCount := 0
		var groups []core.RowGroup
		for _, acpID := range key.IDs() {
			rows := rowsByACP[acpID]
			rowCount += len(rows)
			if len(rows) > 0 {
				groups = append(groups, core.RowGroup{ID: acpID, Rows: rows})
			}
		}
		specs = append(specs, core.ConfigSpec{
			ID:     string(key),
			Sig:    configSig(d, key, vers, rowCount, km.minN),
			Groups: groups,
			MinN:   km.minN,
		})
	}
	built := make(map[string]core.ConfigKeys)
	if len(specs) > 0 {
		var err error
		if built, err = km.engine.RekeyAll(specs); err != nil {
			return nil, nil, nil, fmt.Errorf("pubsub: building ACVs: %w", err)
		}
	}
	secrets := func() (out []SolvedConfig, _ []SolvedShard) {
		for _, s := range specs {
			if ck := built[s.ID]; ck.Rebuilt {
				out = append(out, SolvedConfig{ID: s.ID, Key: ck.Key, Sig: s.Sig})
			}
		}
		return out, nil
	}
	infos, keys, err := assemble(cfgs, throwaway, solo, aliases, func(key, rep policy.ConfigKey) (ConfigInfo, ff64.Elem) {
		ck := built[string(rep)]
		km.noteDominanceSkip(key, rep, ck.Rebuilt)
		return ConfigInfo{Key: key, Header: ck.Hdr}, ck.Key
	})
	return infos, keys, secrets, err
}

// configKeysGrouped is the grouped counterpart of configKeys: each
// configuration's shards are the sticky per-policy groups of the registry's
// grouped snapshot, identified across configurations and sessions by
// "policy/group" so shared shards solve once and clean shards never re-solve.
// A shard the snapshot found solved carries its leased solve instead of rows.
func (km *keyManager) configKeysGrouped(cfgs map[policy.ConfigKey][]string, shardsByACP map[string][]core.ShardSpec) ([]ConfigInfo, map[policy.ConfigKey][sym.KeySize]byte, sessionSecrets, error) {
	solo, throwaway, aliases := km.splitByDominance(cfgs, func(acpID string) bool { return len(shardsByACP[acpID]) > 0 })

	specs := make([]core.GroupedConfigSpec, 0, len(solo))
	for _, key := range solo {
		// A configuration of one policy shares its specs (the engine only
		// reads them); a longer one appends onto a clipped copy.
		ids := key.IDs()
		shards := shardsByACP[ids[0]]
		for _, acpID := range ids[1:] {
			shards = append(slices.Clip(shards), shardsByACP[acpID]...)
		}
		specs = append(specs, core.GroupedConfigSpec{ID: string(key), Shards: shards})
	}
	built := make(map[string]core.GroupedConfigKeys)
	if len(specs) > 0 {
		var err error
		if built, err = km.engine.RekeyAllGrouped(specs); err != nil {
			return nil, nil, nil, fmt.Errorf("pubsub: building grouped ACVs: %w", err)
		}
	}
	secrets := func() (configs []SolvedConfig, shards []SolvedShard) {
		seen := make(map[string]bool)
		for _, s := range specs {
			ck := built[s.ID]
			if !ck.Rebuilt {
				continue
			}
			sc := SolvedConfig{ID: s.ID, Key: ck.Key, Shards: make([]string, len(s.Shards))}
			for i, sh := range s.Shards {
				sc.Shards[i] = sh.ID
			}
			configs = append(configs, sc)
			for _, sh := range ck.Solved {
				if !seen[sh.ID] {
					seen[sh.ID] = true
					shards = append(shards, SolvedShard{ID: sh.ID, Sig: sh.Sig, Key: sh.Key})
				}
			}
		}
		return configs, shards
	}
	infos, keys, err := assemble(cfgs, throwaway, solo, aliases, func(key, rep policy.ConfigKey) (ConfigInfo, ff64.Elem) {
		ck := built[string(rep)]
		km.noteDominanceSkip(key, rep, ck.Rebuilt)
		return ConfigInfo{Key: key, Grouped: ck.Hdr}, ck.Key
	})
	return infos, keys, secrets, err
}
