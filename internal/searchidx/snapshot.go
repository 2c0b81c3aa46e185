// Snapshot publication and lock-free conjunctive retrieval: the index's
// postings live in immutable epoch-swapped snapshots, and queries resolve
// by rarest-first galloping (exponential-search) intersection of compact
// sorted []uint32 posting arrays, into caller- or pool-owned scratch.
package searchidx

import (
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
)

// atomicSnapshot is the RCU publication point for the index.
type atomicSnapshot = atomic.Pointer[Snapshot]

// Snapshot is an immutable point-in-time view of the index's postings.
// Postings are held two-level: a large base map plus a small delta overlay
// carrying every term touched since the last fold, so each mutation clones
// only the overlay (O(delta), not O(terms)) and readers pay at most two
// map probes per term. An empty (non-nil) delta entry is a tombstone
// hiding a deleted base term.
type Snapshot struct {
	epoch uint64
	base  map[string]posting
	delta map[string]posting
}

// deltaFoldThreshold is the overlay size at which a mutation folds the
// delta into a fresh base map. Small enough that per-mutation clones stay
// cheap, large enough that the O(terms) fold is rare.
const deltaFoldThreshold = 256

// Epoch returns the snapshot's publication epoch. It increases by exactly
// one per published mutation — one per Add, AddBatch or Delete, however
// many documents the batch carried — so it keys caches of retrieval
// results.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// postings returns the term's posting list in this snapshot (zero-value
// or empty when the term matches no document).
func (s *Snapshot) postings(term string) posting {
	if p, ok := s.delta[term]; ok {
		return p
	}
	return s.base[term]
}

// Snapshot returns the current immutable index view: a single atomic
// load, safe to call concurrently with any mutation.
func (ix *Index) Snapshot() *Snapshot { return ix.snap.Load() }

// cloneDelta copies the overlay so the published snapshot stays immutable
// while the writer applies its updates.
func cloneDelta(delta map[string]posting, extra int) map[string]posting {
	out := make(map[string]posting, len(delta)+extra)
	for k, v := range delta {
		out[k] = v
	}
	return out
}

// lookupPostings is the writer-side view of a term across base and a
// working delta.
func lookupPostings(base, delta map[string]posting, term string) posting {
	if p, ok := delta[term]; ok {
		return p
	}
	return base[term]
}

// publish swaps in the next snapshot, folding the delta into a new base
// map once it outgrows the threshold. The fold recomputes each folded
// term's block bounds exactly — the periodic tightening that sheds any
// looseness accumulated by monotone raises. Callers hold ix.mu.
func (ix *Index) publish(cur *Snapshot, delta map[string]posting) {
	ns := &Snapshot{epoch: cur.epoch + 1, base: cur.base, delta: delta}
	if len(delta) > deltaFoldThreshold {
		// Folded terms get freshly computed bounds arrays; cached bound
		// references into the old ones must be re-resolved.
		ix.beginRebuild()
		base := make(map[string]posting, len(cur.base)+len(delta))
		for k, v := range cur.base {
			base[k] = v
		}
		for k, v := range delta {
			if len(v.ids) == 0 {
				delete(base, k)
			} else {
				base[k] = posting{ids: v.ids, b: ix.computeBounds(v.ids)}
			}
		}
		ns.base, ns.delta = base, nil
	}
	ix.snap.Store(ns)
}

// queryScratch is the per-retrieval working set, pooled so a steady-state
// retrieval allocates nothing.
type queryScratch struct {
	terms   []string
	lists   []posting
	cursors []int
	block   []uint32 // per-block intersection buffer for RetrievePruned
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func (qs *queryScratch) release() {
	// Drop references so the pool does not pin query strings or whole
	// posting arrays between requests.
	clear(qs.terms)
	clear(qs.lists)
	queryScratchPool.Put(qs)
}

// RetrieveInto appends the ids of the documents matching every query term
// (conjunctive AND) to dst, in ascending id order, and returns the
// extended slice. Terms are intersected rarest-first with a galloping
// cursor advance, streaming directly into dst; internal scratch comes
// from a sync.Pool, so the only allocation is dst growth. When any term
// has no postings, or the query tokenizes to zero terms, dst is returned
// unchanged without allocating.
func (s *Snapshot) RetrieveInto(dst []uint32, query string) []uint32 {
	qs := queryScratchPool.Get().(*queryScratch)
	defer qs.release()
	terms := appendTokens(qs.terms[:0], query)
	qs.terms = terms
	if len(terms) == 0 {
		return dst
	}
	lists, ok := s.gatherLists(qs, terms)
	if !ok {
		return dst
	}
	if len(lists) == 1 {
		return append(dst, lists[0].ids...)
	}
	cursors := qs.cursors[:0]
	for range lists {
		cursors = append(cursors, 0)
	}
	qs.cursors = cursors
	return intersectLists(dst, lists, cursors)
}

// gatherLists resolves the deduplicated query terms' postings into
// qs.lists, rarest first. ok is false when any term has no postings —
// the conjunction is empty.
func (s *Snapshot) gatherLists(qs *queryScratch, terms []string) (lists []posting, ok bool) {
	lists = qs.lists[:0]
	for ti, t := range terms {
		if containsTerm(terms[:ti], t) {
			continue
		}
		p := s.postings(t)
		if len(p.ids) == 0 {
			qs.lists = lists
			return lists, false
		}
		lists = append(lists, p)
	}
	qs.lists = lists
	// Rarest term first: it drives the intersection, and every other
	// cursor only ever gallops forward. Insertion sort — term counts are
	// tiny and sort.Slice would allocate.
	for i := 1; i < len(lists); i++ {
		for j := i; j > 0 && len(lists[j].ids) < len(lists[j-1].ids); j-- {
			lists[j], lists[j-1] = lists[j-1], lists[j]
		}
	}
	return lists, true
}

// intersectLists appends the k-way intersection of the sorted lists to
// dst. lists[0] (the rarest) drives: each of its ids is located in every
// other list by galloping from that list's cursor, so the total work is
// O(Σ log(gap)) — bounded by the rarest list, not the largest.
func intersectLists(dst []uint32, lists []posting, cursors []int) []uint32 {
	rare := lists[0].ids
outer:
	for _, v := range rare {
		for li := 1; li < len(lists); li++ {
			l := lists[li].ids
			j := gallop(l, cursors[li], v)
			cursors[li] = j
			if j == len(l) {
				// This list is exhausted; no larger id can match.
				return dst
			}
			if l[j] != v {
				continue outer
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// PruneStats reports what one RetrievePruned call did.
type PruneStats struct {
	// Candidates counts the matching ids streamed to emit.
	Candidates int
	// BlocksSkipped counts driving-list blocks the skip callback pruned.
	BlocksSkipped int
	// CandidatesPruned counts the driving-list entries inside skipped
	// blocks — an upper bound on the matches pruning suppressed (a
	// skipped entry need not have matched the other terms).
	CandidatesPruned int
}

// RetrievePruned streams the conjunctive matches of query in ascending
// id order through emit, giving skip a chance to prune each block of
// the driving (rarest) posting list first: skip receives the block's
// popularity upper bound and returns true to drop the whole block —
// its galloping work, its matches, and the per-candidate work the
// caller would have done. emit may be called many times, once per
// surviving block, with a scratch slice valid only for the call.
//
// The pruned scan is exact for bounded top-K selection: candidates
// stream in ascending id order, so every unseen candidate is younger
// than everything a caller's heap already holds, and rank ties break
// toward older documents — a block whose upper bound cannot BEAT the
// caller's current threshold (upper <= min kept popularity) contains
// nothing the full scan would have kept. Callers must only skip when
// their selection is already full; see serve.queryCandidates.
//
// A nil skip never prunes (the plain full intersection). The per-call
// scratch comes from the shared pool, so steady-state calls allocate
// nothing.
func (s *Snapshot) RetrievePruned(query string, skip func(upper float64) bool, emit func(ids []uint32)) PruneStats {
	var st PruneStats
	qs := queryScratchPool.Get().(*queryScratch)
	defer qs.release()
	terms := appendTokens(qs.terms[:0], query)
	qs.terms = terms
	if len(terms) == 0 {
		return st
	}
	lists, ok := s.gatherLists(qs, terms)
	if !ok {
		return st
	}
	rare := lists[0]
	cursors := qs.cursors[:0]
	for range lists {
		cursors = append(cursors, 0)
	}
	qs.cursors = cursors
	buf := qs.block
	for lo := 0; lo < len(rare.ids); lo += BlockStride {
		hi := min(lo+BlockStride, len(rare.ids))
		if skip != nil && skip(rare.b.upper(lo/BlockStride)) {
			st.BlocksSkipped++
			st.CandidatesPruned += hi - lo
			// The other lists' cursors stay put; the next surviving
			// block gallops over the gap in O(log distance).
			continue
		}
		block := rare.ids[lo:hi]
		if len(lists) == 1 {
			st.Candidates += len(block)
			emit(block)
			continue
		}
		buf = intersectBlock(buf[:0], block, lists, cursors)
		if len(buf) > 0 {
			st.Candidates += len(buf)
			emit(buf)
		}
		// An exhausted other list ends the whole scan: no larger id can
		// match, so the remaining driver blocks are not "pruned", they
		// are simply past the last possible match.
		for li := 1; li < len(lists); li++ {
			if cursors[li] == len(lists[li].ids) {
				qs.block = buf
				return st
			}
		}
	}
	qs.block = buf
	return st
}

// intersectBlock appends to dst the ids of one driving-list block that
// match every other list, galloping each other-list cursor forward.
func intersectBlock(dst []uint32, block []uint32, lists []posting, cursors []int) []uint32 {
outer:
	for _, v := range block {
		for li := 1; li < len(lists); li++ {
			l := lists[li].ids
			j := gallop(l, cursors[li], v)
			cursors[li] = j
			if j == len(l) {
				return dst
			}
			if l[j] != v {
				continue outer
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// gallop returns the smallest index j in [lo, len(list)] with
// list[j] >= target: an exponential search from lo followed by a binary
// search inside the located window, O(log distance) instead of O(log n).
func gallop(list []uint32, lo int, target uint32) int {
	n := len(list)
	if lo >= n || list[lo] >= target {
		return lo
	}
	// Invariant below: list[lo] < target.
	step := 1
	hi := lo + step
	for hi < n && list[hi] < target {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > n {
		hi = n
	}
	// list[lo] < target <= list[hi] (or hi == n).
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// NormalizeQuery returns the query's canonical retrieval form: its
// lower-cased terms joined by single spaces. Two queries with equal
// normal forms retrieve identical candidate sets, so the normal form
// keys query caches. When the query is already canonical it is returned
// unchanged, without allocating — the hot-path case.
func NormalizeQuery(query string) string {
	if isNormalQuery(query) {
		return query
	}
	qs := queryScratchPool.Get().(*queryScratch)
	terms := appendTokens(qs.terms[:0], query)
	qs.terms = terms
	out := strings.Join(terms, " ")
	qs.release()
	return out
}

// isNormalQuery reports whether query is already in canonical form:
// non-empty, all alphanumeric lower-case terms separated by exactly one
// space, with no leading or trailing space.
func isNormalQuery(query string) bool {
	if query == "" {
		return false
	}
	prevSpace := true // a space at position 0 is a leading space
	for _, r := range query {
		if r == ' ' {
			if prevSpace {
				return false
			}
			prevSpace = true
			continue
		}
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			return false
		}
		if unicode.ToLower(r) != r {
			return false
		}
		prevSpace = false
	}
	return !prevSpace
}
