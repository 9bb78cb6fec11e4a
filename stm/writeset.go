package stm

import (
	"cmp"
	"slices"
)

// Small-set fast paths for the per-attempt collections. Transactions in
// every registered workload pattern touch a handful of variables, so the
// per-attempt map[*tvar]any write set (tl2) and map[*orec]bool lock set
// (twopl) paid map-header allocation, hashing and GC scanning for sets
// that almost never exceed a few entries. Both are now an append-ordered
// slice that linear-scans below a spill threshold and attaches a lazily
// allocated map index only beyond it; the slices live in pooled attempt
// state (see txState.reset in engines.go), so in steady state membership
// tests, inserts and commit-time ordering touch the allocator zero times.

// defaultSmallSetSpill is the entry count past which the small-set
// structures build a map index. Eight covers the overwhelming case in
// every registered workload pattern while keeping the linear scan within
// one or two cache lines of entries.
const defaultSmallSetSpill = 8

// SmallSetSpill overrides the spill threshold for engines created after
// it is set: 0 picks the default. Raising it trades longer linear scans
// for later map allocation on large transactions; it exists as a knob for
// the same reason OrecShards does — so the threshold is measurable, not
// argued. Set it before NewEngine; engines already built keep theirs.
var SmallSetSpill int

// spillThreshold resolves the knob at engine construction.
func spillThreshold() int {
	if SmallSetSpill > 0 {
		return SmallSetSpill
	}
	return defaultSmallSetSpill
}

// maxPooledSetEntries bounds what a small-set structure keeps across
// pooled uses. A rare huge transaction (a TMap resize writes every
// bucket) would otherwise leave its map index behind, and clearing a
// map costs time proportional to its size, not its population — a tax on
// every later transaction that draws the state from the pool. Past the
// bound reset drops the storage and the next large attempt reallocates.
const maxPooledSetEntries = 1024

// writeEntry is one buffered write, value in raw-word form (value.go).
type writeEntry struct {
	tv *tvar
	v  vword
}

// writeSet buffers an attempt's writes in first-write order (the order
// mark/rollbackTo truncates by). Lookups linear-scan the slice until it
// spills past the threshold, after which idx maps each variable to its
// entry. reset keeps the backing storage for the next pooled attempt.
type writeSet struct {
	entries []writeEntry
	spill   int
	idx     map[*tvar]int
}

func (ws *writeSet) init(spill int) {
	if spill <= 0 {
		spill = defaultSmallSetSpill
	}
	ws.spill = spill
}

func (ws *writeSet) len() int { return len(ws.entries) }

// lookup returns the index of tv's entry.
func (ws *writeSet) lookup(tv *tvar) (int, bool) {
	if ws.idx != nil {
		i, ok := ws.idx[tv]
		return i, ok
	}
	for i := range ws.entries {
		if ws.entries[i].tv == tv {
			return i, true
		}
	}
	return 0, false
}

// get returns the buffered value for tv.
func (ws *writeSet) get(tv *tvar) (vword, bool) {
	if i, ok := ws.lookup(tv); ok {
		return ws.entries[i].v, true
	}
	return vword{}, false
}

// put buffers v for tv, overwriting in place on a rewrite. Crossing the
// spill threshold builds the map index once; it then tracks every insert.
func (ws *writeSet) put(tv *tvar, v vword) {
	if i, ok := ws.lookup(tv); ok {
		ws.entries[i].v = v
		return
	}
	ws.entries = append(ws.entries, writeEntry{tv: tv, v: v})
	switch {
	case ws.idx != nil:
		ws.idx[tv] = len(ws.entries) - 1
	case len(ws.entries) > ws.spill:
		ws.idx = make(map[*tvar]int, 2*len(ws.entries))
		ws.reindex()
	}
}

// reindex rebuilds the map index from the entries.
func (ws *writeSet) reindex() {
	for i := range ws.entries {
		ws.idx[ws.entries[i].tv] = i
	}
}

// insertionSortMax is the largest write set sortByID insertion-sorts.
// Measured, not argued: a 16-key TMap preload commits ~40 entries, and
// moving the cut-over down to the spill threshold (8) cost the
// benchmark's embedded_hot set-up 15% — pdqsort pays a comparator call
// per step where the insertion sort's inner loop is three instructions.
// Past a few dozen entries the quadratic term takes over (a 262144-entry
// rehash commit spent a minute here).
const insertionSortMax = 64

// sortByID sorts the entries by variable id — the commit-time lock
// order — in place: an insertion sort for the small and mid-sized sets
// nearly every commit has, pdqsort beyond insertionSortMax. First-write
// order is given up, but commit is the attempt's last act, so no mark
// can still be rolled back.
func (ws *writeSet) sortByID() {
	es := ws.entries
	if len(es) > insertionSortMax {
		slices.SortFunc(es, func(a, b writeEntry) int { return cmp.Compare(a.tv.id, b.tv.id) })
	} else {
		for i := 1; i < len(es); i++ {
			e := es[i]
			j := i - 1
			for j >= 0 && es[j].tv.id > e.tv.id {
				es[j+1] = es[j]
				j--
			}
			es[j+1] = e
		}
	}
	if ws.idx != nil {
		ws.reindex()
	}
}

// containsSorted reports membership after sortByID, by binary search.
func (ws *writeSet) containsSorted(tv *tvar) bool {
	if ws.idx != nil {
		_, ok := ws.idx[tv]
		return ok
	}
	lo, hi := 0, len(ws.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ws.entries[mid].tv.id < tv.id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ws.entries) && ws.entries[lo].tv == tv
}

// truncate drops every entry from n on and restores saved over the
// surviving prefix — the rollbackTo half of the OrElse bracket. The map
// index, if any, is rebuilt to match.
func (ws *writeSet) truncate(n int, saved []writeEntry) {
	clear(ws.entries[n:])
	ws.entries = ws.entries[:n]
	copy(ws.entries, saved)
	if ws.idx != nil {
		clear(ws.idx)
		ws.reindex()
	}
}

// reset empties the set for reuse, zeroing dropped entries so a pooled
// attempt state pins neither variables nor values between uses, and
// letting go of storage grown past maxPooledSetEntries.
func (ws *writeSet) reset() {
	if cap(ws.entries) > maxPooledSetEntries {
		ws.entries, ws.idx = nil, nil
		return
	}
	clear(ws.entries)
	ws.entries = ws.entries[:0]
	if ws.idx != nil {
		clear(ws.idx)
	}
}

// lockSet is the 2PL analogue for held ownership records: acquisition
// order in the slice (the release order walks it backward), linear-scan
// membership below the spill threshold, lazy map index beyond it.
type lockSet struct {
	held  []*orec
	spill int
	idx   map[*orec]struct{}
}

func (ls *lockSet) init(spill int) {
	if spill <= 0 {
		spill = defaultSmallSetSpill
	}
	ls.spill = spill
}

func (ls *lockSet) contains(o *orec) bool {
	if ls.idx != nil {
		_, ok := ls.idx[o]
		return ok
	}
	for _, h := range ls.held {
		if h == o {
			return true
		}
	}
	return false
}

func (ls *lockSet) add(o *orec) {
	ls.held = append(ls.held, o)
	switch {
	case ls.idx != nil:
		ls.idx[o] = struct{}{}
	case len(ls.held) > ls.spill:
		ls.idx = make(map[*orec]struct{}, 2*len(ls.held))
		for _, h := range ls.held {
			ls.idx[h] = struct{}{}
		}
	}
}

// reset empties the set for reuse, within the same bound as the write
// set; the caller has already released the records.
func (ls *lockSet) reset() {
	if cap(ls.held) > maxPooledSetEntries {
		ls.held, ls.idx = nil, nil
		return
	}
	clear(ls.held)
	ls.held = ls.held[:0]
	if ls.idx != nil {
		clear(ls.idx)
	}
}
