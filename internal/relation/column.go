package relation

import (
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// This file holds the columnar side of Instance: fixed-width id keys,
// the per-generation posting-list index, and the IDIndex view consumed
// by the integer join engine in internal/cq. The string-map storage in
// relation.go stays alive behind SetInterning(false) as the correctness
// oracle; everything here must be observably identical to it (tuple
// order, bucket order, distinct counts), which the cross-validation
// suites assert.

// inlineArity is the arity up to which id scratch buffers live on the
// stack; wider tuples (rare) fall back to heap slices.
const inlineArity = 16

// appendID appends the fixed-width big-endian encoding of one id.
func appendID(dst []byte, id int32) []byte {
	u := uint32(id)
	return append(dst, byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
}

// AppendIDKey appends the fixed-width byte encoding of an id tuple to
// dst and returns the extended slice. Each id occupies exactly four
// bytes, so the encoding is collision-free for a fixed arity and —
// unlike Tuple.Key — involves no per-value length formatting and no
// string allocation on the lookup path (map probes use the compiler's
// zero-copy m[string(b)] form). Keys are comparable across instances
// exactly when they share a Dict.
func AppendIDKey(dst []byte, ids []int32) []byte {
	for _, id := range ids {
		dst = appendID(dst, id)
	}
	return dst
}

// Bitset is a fixed-size bitmap over tuple ranks, the dense posting
// container used for high-frequency column values where a sorted rank
// array would approach the size of the column itself.
type Bitset struct {
	words []uint64
	n     int32
}

func newBitset(size int) *Bitset {
	return &Bitset{words: make([]uint64, (size+63)/64)}
}

func (b *Bitset) set(i int32) {
	w := &b.words[i>>6]
	bit := uint64(1) << (uint(i) & 63)
	if *w&bit == 0 {
		*w |= bit
		b.n++
	}
}

// Contains reports whether rank i is set.
func (b *Bitset) Contains(i int32) bool {
	return b.words[i>>6]&(uint64(1)<<(uint(i)&63)) != 0
}

// Count returns the number of set ranks.
func (b *Bitset) Count() int32 { return b.n }

// Words exposes the raw bitmap for allocation-free ascending iteration
// (rank = 64*w + trailing-zero position). Callers must not modify it.
func (b *Bitset) Words() []uint64 { return b.words }

// ForEach visits the set ranks in ascending order until fn returns
// false; it reports whether iteration ran to completion.
func (b *Bitset) ForEach(fn func(rank int32) bool) bool {
	for w, word := range b.words {
		for word != 0 {
			r := int32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			if !fn(r) {
				return false
			}
		}
	}
	return true
}

// postingSet is one generation's columnar index: the rank permutation
// ordering rows lexicographically (by value strings, matching
// Tuple.Less), per-column id slices in that order, and lazily built
// per-column posting containers. Like indexSet it is published with
// compare-and-swap and never mutated after a column slot fills, so
// concurrent readers of a quiescent instance need no locks.
type postingSet struct {
	gen  uint64
	rank []int32 // rank (sorted position) -> row
	// scols[c][k] is the id in column c of the row at rank k. With two
	// or more rows the columns are consecutive windows of one backing
	// array, and scols[0] keeps the whole array as its capacity (the
	// other windows end at their own length), so a set retired by
	// Instance.Reset is rebuilt into its own rank and column storage
	// (see buildPostingBase).
	scols [][]int32
	cols  []atomic.Pointer[postingCol] // lazily built per-column postings
}

// postingCol holds the posting containers of one column: for each
// distinct id either a sorted rank array (sliced out of ranks) or, for
// high-frequency ids, a Bitset over ranks. Both enumerate ranks in
// ascending order, i.e. in the same relative order as the full
// Instance.Tuples scan — the property every enumeration-order-sensitive
// observation downstream relies on.
type postingCol struct {
	ids    []int32   // all distinct ids of the column, ascending
	counts []int32   // counts[i] = frequency of ids[i]
	offs   []int32   // offs[i] = start into ranks, or -1 for a Bitset
	ranks  []int32   // concatenated rank arrays of the sparse ids
	bits   []*Bitset // bits[i] = the Bitset of ids[i] when offs[i] < 0

	// tbuckets lazily materializes value → []Tuple buckets for the
	// legacy Lookup API on interned instances (only paid when a caller
	// actually mixes the string path with columnar storage).
	tbuckets atomic.Pointer[map[Value][]Tuple]
}

// denseWorthy decides the array-vs-bitmap switch-over: a value needs
// both an absolute floor (small bitmaps never pay for themselves) and a
// density floor of 1/16 of the column (below that the rank array is
// smaller and its cache behavior better).
func denseWorthy(count int32, n int) bool {
	return count >= 64 && int(count)*16 >= n
}

// Postings is one value's posting container: either a sorted rank
// array or, when Bits is non-nil, a bitmap over ranks. N is the number
// of matching rows either way.
type Postings struct {
	Ranks []int32
	Bits  *Bitset
	N     int32
}

// ordSortMinRows is the row count above which the rank sort goes
// through per-column order codes (one string sort per distinct value
// set, then integer row comparisons) instead of comparing value strings
// per row pair. Small instances — the per-valuation Δ-deltas of the
// decision procedures — skip the order-code scratch entirely.
const ordSortMinRows = 64

// ensurePostings returns the posting set for the current generation,
// building and publishing it on first use with the same benign-race CAS
// discipline as index().
func (in *Instance) ensurePostings() *postingSet {
	set := in.postings.Load()
	if set == nil || set.gen != in.gen {
		fresh := in.buildPostingBase()
		if in.postings.CompareAndSwap(set, fresh) {
			set = fresh
		} else if set = in.postings.Load(); set == nil || set.gen != in.gen {
			// Lost the swap to a concurrent mutation's stale set; use
			// the private fresh set for this call only.
			set = fresh
		}
	}
	return set
}

// oneRank is the rank permutation shared by every single-row posting
// set.
var oneRank = []int32{0}

// growInt32 returns buf resliced to n, reallocating only when its
// capacity is short.
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// buildPostingBase computes the rank permutation and rank-ordered
// column slices for the current generation. Rows are ordered by their
// value strings exactly as Tuple.Less orders materialized tuples; the
// dictionary is injective and rows are deduplicated, so the order is
// total and the permutation unique.
//
// The set retired by the last Reset, when there is one, is rebuilt in
// place: the decision procedures refill one recycled Δ-fragment per
// candidate valuation, and with the retired set's buffers a refill of
// up to smallIndexRows rows allocates nothing. Instances at or below
// smallIndexRows never receive posting-container slots (ps.cols stays
// empty): the IDIndex view answers their probes by scanning, so the
// slots would be dead weight. Single-row instances alias the live
// columns instead of copying: the views are immutable-by-contract
// (readers of a mutating instance are forbidden, and the next
// generation rebuilds).
func (in *Instance) buildPostingBase() *postingSet {
	n, arity := in.n, len(in.cols)
	var rankBuf, colBuf []int32
	ps := in.retired.Swap(nil)
	if ps == nil {
		ps = &postingSet{}
	} else {
		// A single-row set's rank (oneRank) and columns (the live
		// columns) have capacity one, and the rebuilds below write only
		// with two or more rows, so only a set's own storage is reused.
		rankBuf = ps.rank
		if len(ps.scols) > 0 {
			colBuf = ps.scols[0][:cap(ps.scols[0])]
		}
	}
	ps.gen = in.gen
	if cap(ps.scols) < arity {
		ps.scols = make([][]int32, arity)
	}
	ps.scols = ps.scols[:arity]
	ps.cols = nil
	if n > smallIndexRows {
		ps.cols = make([]atomic.Pointer[postingCol], arity)
	}
	switch n {
	case 0:
		ps.rank = rankBuf[:0]
		clear(ps.scols)
		if arity > 0 {
			ps.scols[0] = colBuf[:0]
		}
		return ps
	case 1:
		ps.rank = oneRank
		for c := range ps.scols {
			ps.scols[c] = in.cols[c][:1:1]
		}
		return ps
	}
	rank := growInt32(rankBuf, n)
	for r := range rank {
		rank[r] = int32(r)
	}
	if arity > 0 {
		if n < ordSortMinRows {
			vals := in.dict.Snapshot()
			slices.SortFunc(rank, func(a, b int32) int { return in.rowCompare(vals, a, b) })
		} else {
			in.sortByOrderCodes(rank)
		}
	}
	ps.rank = rank
	fillRankCols(ps.scols, in.cols, rank, growInt32(colBuf, n*arity))
	return ps
}

// fillRankCols writes each column's ids in rank order into consecutive
// windows of backing, the layout postingSet.scols documents.
func fillRankCols(scols, cols [][]int32, rank, backing []int32) {
	n := len(rank)
	for c := range scols {
		sc := backing[c*n : (c+1)*n : (c+1)*n]
		if c == 0 {
			sc = backing[:n]
		}
		for k, r := range rank {
			sc[k] = cols[c][r]
		}
		scols[c] = sc
	}
}

// rowCompare orders two rows of an interned instance by their value
// strings, exactly as Tuple.Less orders the materialized tuples.
func (in *Instance) rowCompare(vals []Value, r1, r2 int32) int {
	for c := range in.cols {
		if a, b := in.cols[c][r1], in.cols[c][r2]; a != b {
			return strings.Compare(string(vals[a]), string(vals[b]))
		}
	}
	return 0
}

// sortByOrderCodes sorts rank (the identity permutation of the rows)
// into Tuple.Less order without comparing value strings per row pair.
// Each column's rows are grouped by id with one integer sort of
// (id, row) pairs, the column's distinct ids are sorted once by value,
// and every row gets its id's position in that order as an integer
// order code. The rows are then ordered by one stable counting-sort
// pass per column, last column first (LSD radix over the codes).
func (in *Instance) sortByOrderCodes(rank []int32) {
	n, arity := in.n, len(in.cols)
	vals := in.dict.Snapshot()
	pairs := make([]uint64, n)
	// codes holds every column's order codes back to back; the scratch
	// slices after it serve one column (or one pass) at a time.
	buf := make([]int32, n*arity+4*n+1)
	codes, rest := buf[:n*arity], buf[n*arity:]
	distinct, codeOf, tmp, counts := rest[:n], rest[n:2*n], rest[2*n:3*n], rest[3*n:]
	for c := 0; c < arity; c++ {
		ids := groupByID(pairs, in.cols[c][:n], distinct)
		byValue := tmp[:len(ids)]
		for i := range byValue {
			byValue[i] = int32(i)
		}
		slices.SortFunc(byValue, func(a, b int32) int { return strings.Compare(string(vals[ids[a]]), string(vals[ids[b]])) })
		for o, i := range byValue {
			codeOf[i] = int32(o)
		}
		oc := codes[c*n : (c+1)*n]
		i := -1
		for k, p := range pairs {
			if k == 0 || p>>32 != pairs[k-1]>>32 {
				i++
			}
			oc[uint32(p)] = codeOf[i]
		}
	}
	src, dst := rank, tmp
	for c := arity - 1; c >= 0; c-- {
		oc := codes[c*n : (c+1)*n]
		clear(counts)
		for _, r := range src {
			counts[oc[r]+1]++
		}
		for i := 1; i <= n; i++ {
			counts[i] += counts[i-1]
		}
		for _, r := range src {
			dst[counts[oc[r]]] = r
			counts[oc[r]]++
		}
		src, dst = dst, src
	}
	if &src[0] != &rank[0] {
		copy(rank, src)
	}
}

// groupByID fills pairs with the (id, position) pairs of col sorted by
// id then position, and returns col's distinct ids in ascending order,
// written into distinct.
func groupByID(pairs []uint64, col []int32, distinct []int32) []int32 {
	for k, id := range col {
		pairs[k] = uint64(uint32(id))<<32 | uint64(k)
	}
	slices.Sort(pairs)
	ids := distinct[:0]
	for k, p := range pairs {
		if k == 0 || p>>32 != pairs[k-1]>>32 {
			ids = append(ids, int32(p>>32))
		}
	}
	return ids
}

// postingCol returns the posting containers for col, building and
// CAS-publishing them on first use.
func (in *Instance) postingColFor(ps *postingSet, col int) *postingCol {
	if col < 0 || col >= len(ps.cols) {
		return nil
	}
	if pc := ps.cols[col].Load(); pc != nil {
		return pc
	}
	pc := buildPostingCol(ps.scols[col], in.n)
	ps.cols[col].CompareAndSwap(nil, pc)
	if pub := ps.cols[col].Load(); pub != nil {
		return pub
	}
	return pc
}

// buildPostingCol groups the rank-ordered id slice of one column into
// per-id containers. One integer sort of (id, rank) pairs lays every
// id's ranks out contiguously and in ascending order, so the rank
// arrays and bitmaps fill in a single pass over the sorted pairs.
func buildPostingCol(sc []int32, n int) *postingCol {
	obs.IndexBuilds.Inc()
	pairs := make([]uint64, len(sc))
	pc := &postingCol{}
	pc.ids = groupByID(pairs, sc, make([]int32, 0, 16))
	pc.counts = make([]int32, len(pc.ids))
	pc.offs = make([]int32, len(pc.ids))
	i := -1
	for k, p := range pairs {
		if k == 0 || p>>32 != pairs[k-1]>>32 {
			i++
		}
		pc.counts[i]++
	}
	arrTotal := int32(0)
	for i, c := range pc.counts {
		if denseWorthy(c, n) {
			pc.offs[i] = -1
			if pc.bits == nil {
				pc.bits = make([]*Bitset, len(pc.ids))
			}
			pc.bits[i] = newBitset(n)
		} else {
			pc.offs[i] = arrTotal
			arrTotal += c
		}
	}
	pc.ranks = make([]int32, 0, arrTotal)
	i = -1
	for k, p := range pairs {
		if k == 0 || p>>32 != pairs[k-1]>>32 {
			i++
		}
		if pc.offs[i] < 0 {
			pc.bits[i].set(int32(uint32(p)))
		} else {
			pc.ranks = append(pc.ranks, int32(uint32(p)))
		}
	}
	return pc
}

// postings returns the container of one id, or an empty Postings when
// the id does not occur in the column.
func (pc *postingCol) postings(id int32) Postings {
	i, found := slices.BinarySearch(pc.ids, id)
	if !found {
		return Postings{}
	}
	if pc.offs[i] < 0 {
		return Postings{Bits: pc.bits[i], N: pc.counts[i]}
	}
	return Postings{Ranks: pc.ranks[pc.offs[i] : pc.offs[i]+pc.counts[i]], N: pc.counts[i]}
}

// IDIndex is the read-only interned view of an instance: row ids in
// deterministic rank order plus on-demand posting containers. The zero
// IDIndex (from a legacy instance) is invalid.
type IDIndex struct {
	in *Instance
	ps *postingSet
}

// IDs returns the interned view of the instance; the zero IDIndex when
// the instance uses legacy string-map storage.
func (in *Instance) IDs() IDIndex {
	if in.dict == nil {
		return IDIndex{}
	}
	return IDIndex{in: in, ps: in.ensurePostings()}
}

// Valid reports whether the view is backed by interned storage.
func (ix IDIndex) Valid() bool { return ix.in != nil }

// Rows returns the number of rows.
func (ix IDIndex) Rows() int { return len(ix.ps.rank) }

// Col returns column c as ids in rank (deterministic tuple) order.
// Callers must not modify it.
func (ix IDIndex) Col(c int) []int32 { return ix.ps.scols[c] }

// Postings returns the posting container of id in column c, building
// the column's containers on first use.
func (ix IDIndex) Postings(c int, id int32) Postings {
	pc := ix.in.postingColFor(ix.ps, c)
	if pc == nil {
		return Postings{}
	}
	return pc.postings(id)
}

// smallIndexRows is the row count at or below which the index view
// answers Distinct and probe enumeration by scanning the rank-ordered
// column directly: the per-valuation Δ-instances of the decision
// procedures have a handful of rows, and building posting containers
// for them (two maps plus several slices per column) costs more than
// every probe they will ever serve.
const smallIndexRows = 24

// Small reports whether the view is small enough that callers should
// probe by scanning Col instead of requesting posting containers.
func (ix IDIndex) Small() bool { return len(ix.ps.rank) <= smallIndexRows }

// Distinct returns the number of distinct ids in column c — the same
// selectivity statistic the legacy hash index reports.
func (ix IDIndex) Distinct(c int) int {
	if c < 0 || c >= len(ix.ps.scols) {
		return 0
	}
	if ix.Small() {
		sc := ix.ps.scols[c]
		n := 0
		for i, id := range sc {
			dup := false
			for j := 0; j < i; j++ {
				if sc[j] == id {
					dup = true
					break
				}
			}
			if !dup {
				n++
			}
		}
		return n
	}
	pc := ix.in.postingColFor(ix.ps, c)
	if pc == nil {
		return 0
	}
	return len(pc.ids)
}

// lookupInterned serves the legacy Lookup API on an interned instance:
// value → sorted tuple bucket. Buckets materialize lazily per column
// (CAS-published on the posting column), so the cost is only paid when
// a caller actually uses the string path against columnar storage.
func (in *Instance) lookupInterned(col int, v Value) []Tuple {
	if col < 0 || col >= len(in.cols) {
		return nil
	}
	ps := in.ensurePostings()
	pc := in.postingColFor(ps, col)
	if pc == nil {
		// Small instance without posting-container slots: materialize
		// the buckets per call, which at these sizes costs less than a
		// cache would.
		return in.buildTupleBuckets(ps, col)[v]
	}
	tb := pc.tbuckets.Load()
	if tb == nil {
		m := in.buildTupleBuckets(ps, col)
		pc.tbuckets.CompareAndSwap(nil, &m)
		tb = pc.tbuckets.Load()
		if tb == nil {
			tb = &m
		}
	}
	return (*tb)[v]
}

// buildTupleBuckets materializes value → []Tuple for one column from
// the rank-ordered columns, without touching the shared sorted cache
// (so concurrent builds never race it). Ascending rank order keeps each
// bucket sorted by Tuple.Less.
func (in *Instance) buildTupleBuckets(ps *postingSet, col int) map[Value][]Tuple {
	vals := in.dict.Snapshot()
	arity := len(in.cols)
	buckets := make(map[Value][]Tuple)
	for k := range ps.rank {
		t := make(Tuple, arity)
		for c := 0; c < arity; c++ {
			t[c] = vals[ps.scols[c][k]]
		}
		buckets[t[col]] = append(buckets[t[col]], t)
	}
	return buckets
}

// ProjectIDSet returns the set of fixed-width id-keys of the distinct
// projections of the instance onto cols; ok is false when the instance
// uses legacy storage. Keys are comparable across instances because
// every interned instance shares the process-wide dictionary — this is
// what the p(Dm) memo in internal/cc keys on.
func (in *Instance) ProjectIDSet(cols []int) (map[string]bool, bool) {
	if in.dict == nil {
		return nil, false
	}
	seen := make(map[string]bool, in.n)
	kb := make([]byte, 0, 4*len(cols))
	for r := 0; r < in.n; r++ {
		kb = kb[:0]
		for _, c := range cols {
			kb = appendID(kb, in.cols[c][r])
		}
		if !seen[string(kb)] {
			seen[string(kb)] = true
		}
	}
	return seen, true
}
