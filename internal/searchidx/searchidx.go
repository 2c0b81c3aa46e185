// Package searchidx is a minimal search-engine substrate: a tokenizer, an
// in-memory inverted index with conjunctive (AND) retrieval, and
// popularity-ordered result ranking with a randomized rank-promotion hook.
//
// The paper's model assumes a one-to-one correspondence between queries
// and topics, each query returning exactly the pages of one community
// (§1.4). This package realizes that abstraction concretely: documents
// tagged with topic terms are indexed, a query retrieves the matching
// community, and results are ordered by popularity with the configured
// promotion policy applied — the component a real engine would deploy.
//
// Concurrency. Mutations (Add, AddBatch, Delete, SetPopularity) are
// serialized by an internal mutex and publish each change — a whole
// AddBatch is one change — as a new immutable epoch-tagged Snapshot (an
// RCU swap, the same pattern the serving layer uses for its popularity
// shards). Retrieval — Retrieve, or Snapshot.RetrieveInto on
// the hot path — reads the current snapshot with a single atomic load, so
// concurrent readers never take a lock and never contend with writers.
package searchidx

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"

	"repro/internal/core"
	"repro/internal/randutil"
)

// Document is an indexable page. IDs must fit in a uint32: postings are
// stored as compact sorted []uint32 arrays.
type Document struct {
	ID   int
	Text string
}

// Index is an inverted index over documents with per-document popularity
// scores. All methods are safe for concurrent use; retrieval is lock-free
// (see the package comment).
type Index struct {
	mu     sync.Mutex // serializes mutations and guards the maps below
	docs   map[int]Document
	pop    map[int]float64 // popularity score per doc
	birth  map[int]int     // insertion sequence, for age tie-breaks
	seq    int
	nterms int
	snap   atomicSnapshot
	// popOf, when set, is the external popularity source consulted for
	// exact posting-block bound computation (see bounds.go).
	popOf func(id uint32) float64
	// rebuildSeq is the bound-invalidation seqlock: odd while a mutation
	// that rebuilds posting arrays (or their bounds) is in flight, bumped
	// even when it publishes. Cached BoundRefs resolved at an even value
	// stay raisable lock-free until the value changes (see bounds.go).
	rebuildSeq atomic.Uint64
	rebuilding bool // rebuildSeq is odd; guarded by mu
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	ix := &Index{
		docs:  make(map[int]Document),
		pop:   make(map[int]float64),
		birth: make(map[int]int),
	}
	ix.snap.Store(&Snapshot{})
	return ix
}

// Tokenize lower-cases and splits text into alphanumeric terms.
func Tokenize(text string) []string {
	return appendTokens(nil, text)
}

// appendTokens appends the lower-cased alphanumeric terms of text to dst.
// When text is already lower-case the terms share its backing storage and
// the only allocations are dst growth, so pooled callers tokenize free.
func appendTokens(dst []string, text string) []string {
	lower := strings.ToLower(text) // returns text itself when already lower
	start := -1
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, lower[start:])
	}
	return dst
}

// Add indexes a document: AddBatch's one-document case. Re-adding an
// existing ID is an error: documents are immutable once indexed (delete
// and re-add to change). The change is visible to retrieval as soon as
// Add returns (a new snapshot epoch).
func (ix *Index) Add(doc Document) error {
	return ix.AddBatch([]Document{doc})
}

// AddBatch indexes docs as one mutation. Every document is validated
// first — an ID outside the uint32 range, a text with no indexable
// terms, an ID already indexed or repeated within the batch — and any
// error rejects the whole batch, leaving the index and its epoch
// unchanged. Otherwise the postings of all documents land in one cloned
// delta overlay and one snapshot is published, so a batch of n
// documents costs one overlay clone and at most one fold instead of n.
// Documents get their insertion (age) sequence in slice order, exactly
// as n calls to Add would assign it. An empty batch publishes nothing.
func (ix *Index) AddBatch(docs []Document) error {
	if len(docs) == 0 {
		return nil
	}
	for _, doc := range docs {
		if doc.ID < 0 || int64(doc.ID) > math.MaxUint32 {
			return fmt.Errorf("searchidx: document id %d outside uint32 range", doc.ID)
		}
		if !hasTerms(doc.Text) {
			return fmt.Errorf("searchidx: document %d has no indexable terms", doc.ID)
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.checkNewLocked(docs); err != nil {
		return err
	}
	cur := ix.snap.Load()
	delta := cloneDelta(cur.delta, len(docs))
	qs := queryScratchPool.Get().(*queryScratch)
	for _, doc := range docs {
		ix.docs[doc.ID] = doc
		ix.birth[doc.ID] = ix.seq
		ix.seq++
		id := uint32(doc.ID)
		terms := appendTokens(qs.terms[:0], doc.Text)
		qs.terms = terms
		for ti, t := range terms {
			if containsTerm(terms[:ti], t) {
				continue
			}
			p := lookupPostings(cur.base, delta, t)
			if len(p.ids) == 0 {
				ix.nterms++
			}
			delta[t] = ix.insertPosting(p, id)
		}
	}
	qs.release()
	ix.publish(cur, delta)
	ix.endRebuild()
	return nil
}

// checkNewLocked reports the first document of a batch whose ID is
// already indexed or repeated earlier in the batch. Callers hold ix.mu.
func (ix *Index) checkNewLocked(docs []Document) error {
	var seen map[int]struct{}
	if len(docs) > 1 {
		seen = make(map[int]struct{}, len(docs))
	}
	for _, doc := range docs {
		if _, ok := ix.docs[doc.ID]; ok {
			return fmt.Errorf("searchidx: document %d already indexed", doc.ID)
		}
		if seen == nil {
			continue
		}
		if _, ok := seen[doc.ID]; ok {
			return fmt.Errorf("searchidx: document %d repeated in batch", doc.ID)
		}
		seen[doc.ID] = struct{}{}
	}
	return nil
}

// hasTerms reports whether text holds at least one indexable term —
// Tokenize(text) is non-empty — without allocating.
func hasTerms(text string) bool {
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return true
		}
	}
	return false
}

// Delete removes a document. It reports whether the document existed.
func (ix *Index) Delete(id int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	doc, ok := ix.docs[id]
	if !ok {
		return false
	}
	terms := Tokenize(doc.Text)
	cur := ix.snap.Load()
	delta := cloneDelta(cur.delta, len(terms))
	// Every touched posting list is rebuilt below: stand cached bound
	// references down for the duration.
	ix.beginRebuild()
	delete(ix.docs, id)
	delete(ix.pop, id)
	delete(ix.birth, id)
	for ti, t := range terms {
		if containsTerm(terms[:ti], t) {
			continue
		}
		p := lookupPostings(cur.base, delta, t)
		ids := p.ids
		pos := searchU32(ids, uint32(id))
		if pos == len(ids) || ids[pos] != uint32(id) {
			continue
		}
		if len(ids) == 1 {
			// Tombstone: an empty (non-nil) delta entry hides the base list.
			delta[t] = posting{ids: []uint32{}}
			ix.nterms--
			continue
		}
		trimmed := make([]uint32, len(ids)-1)
		copy(trimmed, ids[:pos])
		copy(trimmed[pos:], ids[pos+1:])
		// Rebuilt list: recompute the block bounds exactly — the deleted
		// document may have been a block's maximum, and this is the one
		// moment tightening is free.
		delta[t] = posting{ids: trimmed, b: ix.computeBounds(trimmed)}
	}
	ix.publish(cur, delta)
	ix.endRebuild()
	return true
}

// containsTerm reports whether t already occurred among the earlier terms
// of a document or query; a linear scan beats a map for the handful of
// terms a document carries, and allocates nothing.
func containsTerm(terms []string, t string) bool {
	for _, u := range terms {
		if u == t {
			return true
		}
	}
	return false
}

// searchU32 returns the smallest index i with ids[i] >= id (binary search).
func searchU32(ids []uint32, id uint32) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.docs)
}

// SetPopularity records a document's current popularity score (in-link
// count, PageRank, visit count — whatever measure the engine uses).
func (ix *Index) SetPopularity(id int, score float64) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	doc, ok := ix.docs[id]
	if !ok {
		return fmt.Errorf("searchidx: unknown document %d", id)
	}
	ix.pop[id] = score
	// Keep the block bounds sound: raise the covering bounds to the new
	// score (lowering a score leaves them valid but loose; the next
	// rebuild tightens them).
	ix.raiseLocked(doc, uint32(id), score)
	return nil
}

// Popularity returns a document's score (zero if never set).
func (ix *Index) Popularity(id int) float64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.pop[id]
}

// Retrieve returns the ids of the documents matching every query term
// (conjunctive AND), in ascending id order, without ranking them. It is
// the candidate-set hook for callers that keep popularity elsewhere — the
// serving layer retrieves here and ranks against its own live shard
// statistics. The returned slice is freshly allocated; when no document
// matches — including when a term has no postings or the query tokenizes
// to zero terms — Retrieve returns nil without allocating at all. Callers
// on a per-request hot path should prefer Snapshot().RetrieveInto, which
// reuses a caller-owned buffer.
func (ix *Index) Retrieve(query string) []int {
	s := ix.snap.Load()
	bufp := idsPool.Get().(*[]uint32)
	ids := s.RetrieveInto((*bufp)[:0], query)
	if len(ids) == 0 {
		*bufp = ids
		idsPool.Put(bufp)
		return nil
	}
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v)
	}
	*bufp = ids
	idsPool.Put(bufp)
	return out
}

var idsPool = sync.Pool{New: func() any { return new([]uint32) }}

// Result is one ranked search hit.
type Result struct {
	ID         int
	Popularity float64
	Promoted   bool // true when placed by the promotion pool
}

// Search retrieves documents matching all query terms and ranks them by
// popularity descending (ties: older document first), applying the given
// rank-promotion policy. Under core.RuleSelective the promotion pool is
// the zero-popularity matches; under core.RuleUniform each match joins
// the pool with probability policy.R. rng drives the randomized merge.
func (ix *Index) Search(query string, policy core.Policy, rng *randutil.RNG) ([]Result, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("searchidx: nil rng")
	}
	ids := ix.Retrieve(query)
	if len(ids) == 0 {
		return nil, nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	// Rank deterministically.
	sort.Slice(ids, func(a, b int) bool {
		pa, pb := ix.pop[ids[a]], ix.pop[ids[b]]
		if pa != pb {
			return pa > pb
		}
		ba, bb := ix.birth[ids[a]], ix.birth[ids[b]]
		if ba != bb {
			return ba < bb
		}
		return ids[a] < ids[b]
	})
	var det, pool []int
	switch policy.Rule {
	case core.RuleSelective:
		for _, id := range ids {
			if ix.pop[id] == 0 {
				pool = append(pool, id)
			} else {
				det = append(det, id)
			}
		}
	case core.RuleUniform:
		for _, id := range ids {
			if rng.Bernoulli(policy.R) {
				pool = append(pool, id)
			} else {
				det = append(det, id)
			}
		}
	default:
		det = ids
	}
	poolSet := make(map[int]bool, len(pool))
	for _, id := range pool {
		poolSet[id] = true
	}
	merged := core.Merge(core.Slice(det), core.Slice(pool), policy.K, policy.R, rng, nil)
	out := make([]Result, len(merged))
	for i, id := range merged {
		out[i] = Result{ID: id, Popularity: ix.pop[id], Promoted: poolSet[id]}
	}
	return out, nil
}

// Terms returns the number of distinct indexed terms.
func (ix *Index) Terms() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.nterms
}
