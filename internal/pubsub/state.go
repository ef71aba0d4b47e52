package pubsub

import (
	"errors"
	"fmt"
	"sort"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
)

// This file is the publisher's journal surface: the event stream the
// internal/store WAL records so mutations between snapshots survive a crash,
// and its replay. The snapshot side is the segmented state export
// (statev2_segments.go), the one durable-state format.
//
// State is SECRET material (paper §V-B: "Table T … should be protected").
// Exported segments and events are plaintext serialization; persisting them
// is the store package's job, which seals them with AEAD under an operator
// key.

// Shape limits applied to imported state and replayed events — the same
// hardening discipline the transport applies to network input, because a
// state file is an integrity boundary too (a restored publisher must not be
// corruptible into unbounded allocations by a damaged or crafted file).
const (
	// maxStateBytes caps the total size of an imported segment set.
	maxStateBytes = 1 << 30
	// maxStateNymLen caps one pseudonym.
	maxStateNymLen = 1024
	// maxStateCondLen caps one condition ID.
	maxStateCondLen = 4096
	// maxStateCount clamps generic element counts (nyms, cache entries,
	// policies, items) before they drive allocations.
	maxStateCount = 1 << 22
	// maxStateRowCells clamps the cells of one pseudonym row.
	maxStateRowCells = 1 << 16
)

func validateStateNym(nym string) error {
	if nym == "" {
		return errors.New("pubsub: state contains empty pseudonym")
	}
	if len(nym) > maxStateNymLen {
		return fmt.Errorf("pubsub: state pseudonym of %d bytes exceeds limits", len(nym))
	}
	return nil
}

// StateEventKind discriminates journal events.
type StateEventKind uint8

// Journal event kinds: the table mutations plus the epoch bump of a publish
// (journaling epochs keeps the counter monotonic across a crash even when
// publishes happened after the last snapshot, so a restarted publisher can
// never reuse an epoch number its subscribers have already seen under the
// same generation).
const (
	StateEventRegister StateEventKind = iota + 1
	StateEventRevokeSubscription
	StateEventRevokeCredential
	StateEventPublish
)

// StateEvent is one durable-journal entry: a registration (freshly drawn CSS
// cells for one pseudonym), a revocation, or a publish. A publish carries its
// epoch and, when the journal can hold it, its Outcome: the broadcast as a
// delta against the document's previous diff base and what its rekey session
// solved, so replay restores the diff base and the engine cache as of that
// epoch instead of the last snapshot's. Register cells and the outcome's
// secrets are SECRET material.
type StateEvent struct {
	Kind    StateEventKind
	Nym     string
	Cond    string              // StateEventRevokeCredential
	Cells   map[string]core.CSS // StateEventRegister
	Doc     string              // StateEventPublish
	Epoch   uint64              // StateEventPublish
	Outcome *PublishOutcome     // StateEventPublish; nil = the epoch alone
}

// CommitTicket is the pending half of one pipelined commit: Wait blocks
// until the commit's events are durable AND applied in-memory (nil), or the
// flush failed (non-nil; the events were neither persisted nor applied, as
// if the mutation never happened).
type CommitTicket interface {
	Wait() error
}

// Journal is the publisher's write-ahead log; every durable mutation and
// every publish commits through it. Begin assigns the events their place in
// the journal order and enqueues them for a coalesced flush, returning
// immediately — the caller then drops the mutation lock and blocks on the
// ticket, so concurrent mutators share one write+fsync instead of
// serializing a flush each. An error from Begin or from the ticket fails the
// triggering operation.
//
// Contract: Begin is called under the publisher's mutation lock for table
// mutations (journal order = apply order stays intact); apply (which may be
// nil) runs exactly once per successful commit, in journal-sequence order,
// after the events are durable and before any of their tickets resolve —
// preserving the write-ahead discipline with visibility deferred to
// durability. On a flush failure apply never runs. internal/store
// implements it.
type Journal interface {
	Begin(evs []StateEvent, apply func()) (CommitTicket, error)
}

// SetJournal installs (or, with nil, removes) the publisher's durable
// journal. Install it before serving traffic; mutations occurring before the
// journal is attached are only captured by the next full snapshot. The
// pointer is written under mutMu and then pubMu, so a table mutation reads
// it under the first and a publish under the second.
func (p *Publisher) SetJournal(j Journal) {
	p.mutMu.Lock()
	defer p.mutMu.Unlock()
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	p.journal = j
}

// Journal returns the installed journal (nil if none).
func (p *Publisher) Journal() Journal {
	p.mutMu.Lock()
	defer p.mutMu.Unlock()
	return p.journal
}

// JournalBarrier runs fn at a moment when no new table mutation can enter
// the journal order (the mutation lock is held across fn). Snapshotters use
// it to capture the journal sequence their export will cover: the journal
// first drains its in-flight commits inside fn — applies run before acks, so
// after the drain every table mutation at or below the captured sequence is
// reflected in memory — then reads the sequence. Skipping those records on recovery can then never drop a
// mutation. (Publishes don't need the barrier: a publish holds the publish
// lock from before its record enters the journal order until its epoch and
// diff base are committed, its rekey session ran before that, and the export
// reads the engine cache after the drain and the epoch and diff bases under
// the same lock — so a publish at or below the captured sequence is in the
// export, and one above it whose broadcast the export already holds is
// skipped on replay, its epoch being no newer than the restored base.)
func (p *Publisher) JournalBarrier(fn func()) {
	p.mutMu.Lock()
	defer p.mutMu.Unlock()
	fn()
}

// commitMutation write-ahead-commits evs and runs apply. check runs under
// the mutation lock before anything is journaled; a non-nil return aborts
// the mutation. The events enter the journal order under the mutation lock,
// the lock is released, and the caller blocks only on the shared group flush
// — so concurrent mutators coalesce into one write+fsync. apply's in-memory
// effect becomes visible only once the events are durable (write-ahead), and
// journal order always equals apply order. With no journal, apply runs
// under the mutation lock.
func (p *Publisher) commitMutation(check func() error, apply func(), evs ...StateEvent) error {
	p.mutMu.Lock()
	if check != nil {
		if err := check(); err != nil {
			p.mutMu.Unlock()
			return err
		}
	}
	if p.journal == nil {
		apply()
		p.mutMu.Unlock()
		return nil
	}
	t, err := p.journal.Begin(evs, apply)
	p.mutMu.Unlock()
	if err == nil {
		err = t.Wait()
	}
	if err != nil {
		return fmt.Errorf("pubsub: journaling state event: %w", err)
	}
	return nil
}

// journalPublish journals the publish of cur, whose diff base was prev, and
// the entries its rekey session created. Called under pubMu before the
// publish commits its epoch and diff base. The outcome — what Diff ships
// against prev, the plaintext digests and the session's secrets — is built
// only when a journal is attached. Unlike table mutations a publish needs no
// mutation-lock ordering (replay of its epoch is a max() and of its outcome a
// no-op unless it extends the restored base), so it simply joins whatever
// group flush is forming.
func (p *Publisher) journalPublish(prev, cur *lastBroadcast, secrets sessionSecrets) error {
	if p.journal == nil {
		return nil
	}
	ev := StateEvent{Kind: StateEventPublish, Doc: cur.b.DocName, Epoch: cur.b.Epoch, Outcome: publishOutcome(prev, cur, secrets)}
	t, err := p.journal.Begin([]StateEvent{ev}, nil)
	if err == nil {
		err = t.Wait()
	}
	if err != nil {
		return fmt.Errorf("pubsub: journaling state event: %w", err)
	}
	return nil
}

// ApplyStateEvent replays one journal event onto the publisher (WAL
// recovery). Replay is idempotent and never journals: re-applying an event
// already reflected in the restored snapshot changes nothing — a register
// with identical cells bumps no membership version, a revocation of an
// absent row is a no-op, an epoch bump is a max(), and a publish outcome is
// skipped whole unless its epoch is newer than its document's restored diff
// base (replayPublish).
func (p *Publisher) ApplyStateEvent(ev StateEvent) error {
	switch ev.Kind {
	case StateEventRegister:
		if err := validateStateNym(ev.Nym); err != nil {
			return err
		}
		if len(ev.Cells) > maxStateRowCells {
			return fmt.Errorf("pubsub: event row for %q has %d cells", ev.Nym, len(ev.Cells))
		}
		cells := make(map[string]core.CSS, len(ev.Cells))
		for cond, css := range ev.Cells {
			if len(cond) > maxStateCondLen {
				return fmt.Errorf("pubsub: event condition ID of %d bytes exceeds limits", len(cond))
			}
			if _, known := p.condByID[cond]; !known {
				continue // policy set changed since the event was journaled
			}
			if css == 0 || uint64(css) >= ff64.Modulus {
				return fmt.Errorf("pubsub: event contains invalid CSS for (%q, %q)", ev.Nym, cond)
			}
			cells[cond] = css
		}
		p.reg.setCells(ev.Nym, cells)
		return nil
	case StateEventRevokeSubscription:
		if err := validateStateNym(ev.Nym); err != nil {
			return err
		}
		// Ignore an unknown pseudonym: the revocation may already be
		// reflected in the snapshot the WAL is replayed over.
		_ = p.reg.revokeSubscription(ev.Nym)
		return nil
	case StateEventRevokeCredential:
		if err := validateStateNym(ev.Nym); err != nil {
			return err
		}
		if len(ev.Cond) > maxStateCondLen {
			return fmt.Errorf("pubsub: event condition ID of %d bytes exceeds limits", len(ev.Cond))
		}
		_ = p.reg.revokeCredential(ev.Nym, ev.Cond)
		return nil
	case StateEventPublish:
		if len(ev.Doc) == 0 || len(ev.Doc) > maxStateCondLen {
			return fmt.Errorf("pubsub: event document name of %d bytes (want 1..%d)", len(ev.Doc), maxStateCondLen)
		}
		p.pubMu.Lock()
		defer p.pubMu.Unlock()
		p.epoch = max(p.epoch, ev.Epoch)
		return p.replayPublish(ev)
	default:
		return fmt.Errorf("pubsub: unknown state event kind %d", ev.Kind)
	}
}

// Generation returns the publisher's incarnation stamp: freshly random for a
// new publisher, restored by a segmented state import so deltas survive
// restarts.
func (p *Publisher) Generation() uint64 {
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	return p.gen
}

// LastBroadcasts returns the most recent broadcast of every document this
// publisher (incarnation) has published or restored, in deterministic
// document-name order. After a warm restart, feeding them to the transport
// server re-seeds its retention ring, so reconnecting subscribers holding
// pre-restart epochs catch up with deltas instead of snapshots.
func (p *Publisher) LastBroadcasts() []*Broadcast {
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	names := make([]string, 0, len(p.lastPub))
	for name := range p.lastPub {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Broadcast, 0, len(names))
	for _, name := range names {
		out = append(out, p.lastPub[name].b)
	}
	return out
}

// ResetRekeyCache drops every cached ACV build, forcing the next Publish to
// re-solve all configurations (benchmarking the full-rebuild regime).
func (p *Publisher) ResetRekeyCache() { p.keys.reset() }
