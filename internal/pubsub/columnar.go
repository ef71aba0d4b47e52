package pubsub

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"ppcd/internal/core"
)

// cssTable is the flat columnar backing of table T. The condition universe is
// interned once (it is fixed at construction: the publisher's policy set
// defines it, and every import path drops unknown conditions before reaching
// the registry) and the cells are one dense row-major []core.CSS block:
//
//	cell(nym, cond) = cells[slot(nym)*width + condIdx[cond]]
//
// A zero cell means "no CSS" (a CSS is never zero: every writer validates
// against ff64.Modulus and draws non-zero secrets), so presence needs no
// side bitmap, and policy qualification and row assembly are contiguous
// array reads.
//
// Slot lifecycle: a new pseudonym takes a slot from the free list or appends
// one. Deletion zeroes the row and marks the slot dead, but the slot is NOT
// reused until the next compact() — this keeps the lazily maintained sorted
// iteration order consistent without re-sorting on every mutation:
//
//   - sorted holds the slots known at the last compaction, in nym order;
//     dead slots are skipped at read time.
//   - pendAdd holds slots added since; a sorted view merges them on the fly.
//   - compact() (called under the registry write lock at snapshot-install
//     points, amortized by a threshold) folds pendAdd into sorted, drops the
//     dead entries and recycles their slots through the free list.
//
// A segmented state import keeps every slot where it was (index, below): the
// table comes back compacted, its dead slots already on the free list.
//
// Beside the cells sits one gid column per grouped policy (§VIII-C,
// grouping.go): gids[policy][slot] is the slot's group in that policy, gidNone
// without one — what a table segment stores, so an export slices the column and
// an import installs it. The grouping layer reads a group's rows through slot
// lists, so a column entry pins its slot: a dead slot is NOT recycled while any
// policy's column still holds a gid for it (its leave has not reached that
// policy's group yet). compact() parks it instead; a member list can then name
// a dead slot — a gather fails on it — but never another pseudonym's row.
type cssTable struct {
	conds   []string
	condIdx map[string]int
	width   int

	nyms   []string         // slot → pseudonym, "" = dead slot
	slotOf map[string]int32 // live pseudonyms only
	cells  []core.CSS       // row-major: slot*width + condition index
	live   int

	sorted  []int32 // nym-sorted slots as of the last compact (may include dead)
	pendAdd []int32 // slots added since the last compact (unsorted)
	dead    int     // dead slots not yet compacted away
	freed   []int32 // reusable slots (zeroed, absent from sorted and pendAdd, no gid)
	parked  []int32 // dead slots compact() could not free: a gid column names them

	// gids holds one group-ID column per grouped policy, each as long as nyms;
	// the values belong to the grouping layer (grpMu, and the write lock).
	gids map[string][]int32

	// dirty is a per-slot bitmap of rows mutated since the last segmented
	// export stole it (statev2_segments.go). Live slots never move — compact
	// only recycles dead slots — so a slot index is a stable address for
	// "this row changed" across arbitrary churn, which is what lets a
	// snapshot rewrite only the slot-range segments that actually changed.
	// Row creation, every cell write, deletion and group-assignment changes
	// all mark here, under the registry write lock.
	dirty []uint64
}

// gidNone marks a slot without a group in one policy's gid column.
const gidNone = int32(-1)

// markDirty records that slot s's row (cells, presence or group assignment)
// changed. Callers hold the registry write lock.
func (t *cssTable) markDirty(s int32) {
	w := int(s) >> 6
	for w >= len(t.dirty) {
		t.dirty = append(t.dirty, 0)
	}
	t.dirty[w] |= 1 << (uint(s) & 63)
}

// stealDirty hands the dirty bitmap to a segmented export and resets it:
// mutations landing after the steal accumulate toward the NEXT snapshot
// (they may also be visible to the current export's later row reads, which
// over-covers harmlessly — WAL replay is idempotent). Callers hold the
// registry write lock.
func (t *cssTable) stealDirty() []uint64 {
	d := t.dirty
	t.dirty = nil
	return d
}

func newCSSTable(conds []string) *cssTable {
	t := &cssTable{
		conds:   conds,
		condIdx: make(map[string]int, len(conds)),
		width:   len(conds),
		slotOf:  make(map[string]int32),
		gids:    make(map[string][]int32),
	}
	for i, c := range conds {
		t.condIdx[c] = i
	}
	return t
}

// ensureRow returns the slot of nym, allocating one if absent.
func (t *cssTable) ensureRow(nym string) int32 {
	if s, ok := t.slotOf[nym]; ok {
		return s
	}
	var s int32
	if n := len(t.freed); n > 0 {
		s = t.freed[n-1]
		t.freed = t.freed[:n-1]
	} else {
		s = int32(len(t.nyms))
		t.nyms = append(t.nyms, "")
		t.cells = append(t.cells, make([]core.CSS, t.width)...)
		for id, col := range t.gids {
			t.gids[id] = append(col, gidNone)
		}
	}
	t.nyms[s] = nym
	t.slotOf[nym] = s
	t.pendAdd = append(t.pendAdd, s)
	t.live++
	t.markDirty(s)
	return s
}

func (t *cssTable) row(s int32) []core.CSS {
	return t.cells[int(s)*t.width : (int(s)+1)*t.width]
}

// rowEmpty reports whether a row holds no CSS at all.
func rowEmpty(row []core.CSS) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

// deleteRow zeroes and retires nym's slot. Reports whether the row existed.
func (t *cssTable) deleteRow(nym string) bool {
	s, ok := t.slotOf[nym]
	if !ok {
		return false
	}
	clear(t.row(s))
	t.nyms[s] = ""
	delete(t.slotOf, nym)
	t.live--
	t.dead++
	t.markDirty(s)
	return true
}

// sortedLive returns the live slots in pseudonym order. When nothing is
// pending the last compaction's order is returned as-is (zero cost); dead
// slots are filtered by the caller via nyms[slot] == "". Callers hold at
// least the registry read lock and must not retain the slice across an
// unlock.
func (t *cssTable) sortedLive() []int32 {
	if len(t.pendAdd) == 0 {
		return t.sorted
	}
	add := append([]int32(nil), t.pendAdd...)
	sort.Slice(add, func(i, j int) bool { return t.nyms[add[i]] < t.nyms[add[j]] })
	out := make([]int32, 0, len(t.sorted)+len(add))
	i, j := 0, 0
	for i < len(t.sorted) && j < len(add) {
		if t.nyms[add[j]] == "" {
			j++
			continue
		}
		if t.nyms[t.sorted[i]] <= t.nyms[add[j]] {
			out = append(out, t.sorted[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	out = append(out, t.sorted[i:]...)
	for ; j < len(add); j++ {
		if t.nyms[add[j]] != "" {
			out = append(out, add[j])
		}
	}
	return out
}

// needsCompact reports whether the pending/dead bookkeeping has outgrown the
// threshold where a compaction pays for itself.
func (t *cssTable) needsCompact() bool {
	return len(t.pendAdd)+t.dead > 64+t.live/8
}

// grouped reports whether any policy's gid column names slot s.
func (t *cssTable) grouped(s int32) bool {
	for _, col := range t.gids {
		if col[s] != gidNone {
			return true
		}
	}
	return false
}

// addGidColumn gives policy id an all-gidNone column. Callers hold the
// registry write lock.
func (t *cssTable) addGidColumn(id string) []int32 {
	t.gids[id] = slices.Repeat([]int32{gidNone}, len(t.nyms))
	return t.gids[id]
}

// compact folds pendAdd into sorted, drops dead slots and recycles them
// through the free list — except those a gid column still names, parked until
// a later compaction finds them released. Callers hold the registry write lock.
func (t *cssTable) compact() {
	if len(t.pendAdd) == 0 && t.dead == 0 && len(t.parked) == 0 {
		return
	}
	merged := t.sortedLive()
	parked := t.parked[:0]
	for _, slots := range [][]int32{t.parked, t.sorted, t.pendAdd} {
		for _, s := range slots {
			switch {
			case t.nyms[s] != "":
			case t.grouped(s):
				parked = append(parked, s)
			default:
				t.freed = append(t.freed, s)
			}
		}
	}
	t.parked = parked
	out := make([]int32, 0, t.live)
	for _, s := range merged {
		if t.nyms[s] != "" {
			out = append(out, s)
		}
	}
	t.sorted = out
	t.pendAdd = t.pendAdd[:0]
	t.dead = 0
}

// index finishes a table whose nyms and cells a segmented import filled in
// place (statev2_segments.go): sorted is the live slots in pseudonym order,
// every other slot is dead and goes straight to the free list, and nothing is
// pending or dirty — the table is exactly what the segments on disk hold.
func (t *cssTable) index(sorted []int32) {
	t.sorted = sorted
	t.live = len(sorted)
	t.slotOf = make(map[string]int32, len(sorted))
	t.freed = make([]int32, 0, len(t.nyms)-len(sorted))
	for s, nym := range t.nyms {
		if nym == "" {
			t.freed = append(t.freed, int32(s))
		} else {
			t.slotOf[nym] = int32(s)
		}
	}
}

// mergeRuns merges per-segment runs of slots, each sorted by pseudonym, into
// the table-wide order: pairwise rounds, the merges of one round in parallel.
// A pseudonym held by two slots is an error (within one run the segment
// decoder has already refused it).
func mergeRuns(nyms []string, runs [][]int32, workers int) ([]int32, error) {
	var dup atomic.Pointer[string]
	for len(runs) > 1 {
		next := make([][]int32, (len(runs)+1)/2)
		core.Parallel(workers, len(next), func(i int) {
			if 2*i+1 == len(runs) {
				next[i] = runs[2*i]
				return
			}
			a, b := runs[2*i], runs[2*i+1]
			out := make([]int32, 0, len(a)+len(b))
			for len(a) > 0 && len(b) > 0 {
				switch c := strings.Compare(nyms[a[0]], nyms[b[0]]); {
				case c < 0:
					out, a = append(out, a[0]), a[1:]
				case c > 0:
					out, b = append(out, b[0]), b[1:]
				default:
					dup.Store(&nyms[a[0]])
					out, a = append(out, a[0]), a[1:]
				}
			}
			next[i] = append(append(out, a...), b...)
		})
		runs = next
	}
	if nym := dup.Load(); nym != nil {
		return nil, fmt.Errorf("pubsub: state contains duplicate pseudonym %q", *nym)
	}
	if len(runs) == 0 {
		return nil, nil
	}
	return runs[0], nil
}

// memBytes estimates the resident footprint of the table: cell block, slot
// directory, interned strings and bookkeeping. The per-entry map constant
// approximates Go's bucket + key-header overhead for string→int32 maps.
func (t *cssTable) memBytes() int64 {
	const mapEntryOverhead = 48
	b := int64(cap(t.cells)) * 8
	b += int64(cap(t.nyms)) * 16
	b += int64(cap(t.sorted)+cap(t.pendAdd)+cap(t.freed)) * 4
	for _, n := range t.nyms {
		b += int64(len(n))
	}
	b += int64(len(t.slotOf)) * mapEntryOverhead
	for _, c := range t.conds {
		b += int64(len(c)) + 16 + mapEntryOverhead
	}
	return b
}
