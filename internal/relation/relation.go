// Package relation provides the relational substrate used throughout the
// library: values, typed attributes with finite or infinite domains,
// relation schemas, tuples, instances and databases.
//
// The model follows Section 2.1 of Fan & Geerts, "Relative Information
// Completeness": every attribute draws its values either from a countably
// infinite domain d, or from a finite domain d_f with at least two
// elements. Instances are set-valued (no duplicates) and all iteration
// orders are deterministic, so every decision procedure built on top of
// this package is reproducible.
package relation

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// Value is a single database value. Values compare by string identity;
// the empty string is a legal value.
type Value string

// DomainKind distinguishes the two attribute domains of the paper.
type DomainKind uint8

const (
	// Infinite is the countably infinite domain d.
	Infinite DomainKind = iota
	// Finite is a finite domain d_f with at least two elements.
	Finite
)

// Domain describes the set of values an attribute may take. For Finite
// domains Values holds the full, sorted value set; for Infinite domains
// Values is nil.
type Domain struct {
	Kind   DomainKind
	Values []Value // sorted, unique; only for Kind == Finite
}

// InfiniteDomain returns the countably infinite domain d.
func InfiniteDomain() Domain { return Domain{Kind: Infinite} }

// FiniteDomain returns a finite domain over the given values. The values
// are deduplicated and sorted. Finite domains must contain at least two
// elements (as required by the paper); smaller domains are rejected at
// schema-validation time, not here, so tests can build degenerate cases.
func FiniteDomain(values ...Value) Domain {
	vs := append([]Value(nil), values...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := vs[:0]
	var prev Value
	for i, v := range vs {
		if i == 0 || v != prev {
			out = append(out, v)
		}
		prev = v
	}
	return Domain{Kind: Finite, Values: out}
}

// Contains reports whether v belongs to the domain. Every value belongs
// to the infinite domain.
func (d Domain) Contains(v Value) bool {
	if d.Kind == Infinite {
		return true
	}
	i := sort.Search(len(d.Values), func(i int) bool { return d.Values[i] >= v })
	return i < len(d.Values) && d.Values[i] == v
}

// Equal reports whether two domains are identical.
func (d Domain) Equal(o Domain) bool {
	if d.Kind != o.Kind || len(d.Values) != len(o.Values) {
		return false
	}
	for i := range d.Values {
		if d.Values[i] != o.Values[i] {
			return false
		}
	}
	return true
}

func (d Domain) String() string {
	if d.Kind == Infinite {
		return "inf"
	}
	parts := make([]string, len(d.Values))
	for i, v := range d.Values {
		parts[i] = string(v)
	}
	return "fin{" + strings.Join(parts, ",") + "}"
}

// Attribute is a named, typed column of a relation schema.
type Attribute struct {
	Name   string
	Domain Domain
}

// Attr is shorthand for an attribute over the infinite domain.
func Attr(name string) Attribute { return Attribute{Name: name, Domain: InfiniteDomain()} }

// FinAttr is shorthand for an attribute over a finite domain.
func FinAttr(name string, values ...Value) Attribute {
	return Attribute{Name: name, Domain: FiniteDomain(values...)}
}

// Schema describes one relation: its name and typed attributes.
type Schema struct {
	Name  string
	Attrs []Attribute
}

// NewSchema builds a relation schema.
func NewSchema(name string, attrs ...Attribute) *Schema {
	return &Schema{Name: name, Attrs: attrs}
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks structural well-formedness: nonempty name, unique
// attribute names and finite domains of size at least two.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("relation: schema with empty name")
	}
	seen := make(map[string]bool, len(s.Attrs))
	for _, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("relation: schema %s has an unnamed attribute", s.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("relation: schema %s has duplicate attribute %s", s.Name, a.Name)
		}
		seen[a.Name] = true
		if a.Domain.Kind == Finite && len(a.Domain.Values) < 2 {
			return fmt.Errorf("relation: schema %s attribute %s: finite domain needs >= 2 values", s.Name, a.Name)
		}
	}
	return nil
}

func (s *Schema) String() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		if a.Domain.Kind == Finite {
			parts[i] = a.Name + ":" + a.Domain.String()
		} else {
			parts[i] = a.Name
		}
	}
	return s.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Tuple is an ordered list of values.
type Tuple []Value

// Key returns a collision-free string encoding of the tuple, suitable as
// a map key. Values are joined with a separator that cannot appear
// inside a Value read from the public constructors' typical inputs; to
// stay collision-free for arbitrary values each component is
// length-prefixed.
func (t Tuple) Key() string {
	n := 0
	for _, v := range t {
		n += len(v) + 4 // value plus decimal length prefix and ':'
	}
	return string(t.AppendKey(make([]byte, 0, n)))
}

// AppendKey appends the tuple's Key encoding to dst, so a caller that
// only probes a Key-indexed map can reuse one scratch buffer.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = strconv.AppendInt(dst, int64(len(v)), 10)
		dst = append(dst, ':')
		dst = append(dst, string(v)...)
	}
	return dst
}

// Equal reports component-wise equality.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if t[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Less orders tuples lexicographically.
func (t Tuple) Less(o Tuple) bool {
	for i := 0; i < len(t) && i < len(o); i++ {
		if t[i] != o[i] {
			return t[i] < o[i]
		}
	}
	return len(t) < len(o)
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = string(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// T builds a tuple from strings; a convenience for literals in tests and
// examples.
func T(vals ...string) Tuple {
	t := make(Tuple, len(vals))
	for i, v := range vals {
		t[i] = Value(v)
	}
	return t
}

// Project returns the tuple restricted to the given column indexes.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Instance is a finite set of tuples over one schema. It has two
// storage modes, fixed at construction time by the SetInterning toggle:
//
//   - Interned (the default): values are interned into dense int32 ids
//     through the process-wide dictionary and rows are stored as column
//     slices (struct-of-arrays); duplicate detection keys on the
//     fixed-width id encoding and secondary indexes are sorted-rank
//     posting lists (column.go). This is the fast path the integer
//     join engine in internal/cq consumes.
//   - Legacy: the original string-keyed tuple map with per-column hash
//     indexes, kept alive behind SetInterning(false) as the
//     correctness oracle for the columnar engine.
//
// Both modes present the identical public surface and identical
// deterministic orders.
type Instance struct {
	Schema *Schema

	// Legacy string-map storage (dict == nil): Tuple.Key → tuple.
	tuples map[string]Tuple

	// Interned columnar storage (dict != nil): cols holds one dense id
	// column per attribute, rows maps a tuple's fixed-width id-key to
	// its row number, n counts rows.
	dict *Dict
	cols [][]int32
	rows map[string]int32
	n    int

	// sorted caches the deterministic tuple order; nil when dirty.
	sorted []Tuple

	// gen counts successful mutations (Add/Remove). Secondary indexes
	// and external caches key on it for invalidation.
	gen uint64

	// indexes publishes the lazily-built secondary hash indexes for the
	// generation recorded in indexSet.gen (legacy mode). Index sets are
	// built on demand, atomically swapped in, and never mutated after a
	// column slot is published, so concurrent readers of a quiescent
	// instance need no locks. Mutating an instance while others read it
	// remains forbidden, exactly as for the sorted cache.
	indexes atomic.Pointer[indexSet]

	// postings is the interned-mode counterpart of indexes: the
	// CAS-published posting-list index of column.go.
	postings atomic.Pointer[postingSet]
	// retired is the posting set Reset unpublished; the next
	// buildPostingBase claims it (Swap) and rebuilds into its buffers.
	retired atomic.Pointer[postingSet]
}

// indexSet holds one generation's per-column indexes. cols has one slot
// per attribute; slots fill in lazily as columns are first probed.
type indexSet struct {
	gen  uint64
	cols []atomic.Pointer[colIndex]
}

// colIndex maps a column value to the tuples carrying it. Buckets are
// sorted by Tuple.Less, so enumerating a bucket visits tuples in the
// same relative order as the full Instance.Tuples scan.
type colIndex struct {
	buckets map[Value][]Tuple
}

// NewInstance returns an empty instance of the schema. Its storage
// mode (interned columnar vs. legacy string map) is fixed here by the
// current SetInterning toggle and never changes afterwards.
func NewInstance(s *Schema) *Instance {
	if InterningEnabled() {
		// rows stays nil until the instance outgrows linear dedup:
		// the decision procedures build one tiny Δ-instance per
		// valuation, and for those the map (and its string keys)
		// never needs to exist.
		return &Instance{
			Schema: s,
			dict:   shared,
			cols:   make([][]int32, s.Arity()),
		}
	}
	return &Instance{Schema: s, tuples: make(map[string]Tuple)}
}

// linearRowsMax is the row count up to which an interned instance
// resolves duplicates by scanning its columns instead of keeping the
// id-key row map. It matches smallIndexRows, so a recycled Δ-fragment
// small enough to be probed by scanning also dedups without the map
// and refills without allocating.
const linearRowsMax = smallIndexRows

// rowOf returns the row holding exactly ids, or -1. Linear scan for
// map-less small instances.
func (in *Instance) rowOf(ids []int32) int32 {
outer:
	for r := 0; r < in.n; r++ {
		for c := range in.cols {
			if in.cols[c][r] != ids[c] {
				continue outer
			}
		}
		return int32(r)
	}
	return -1
}

// buildRows materializes the id-key row map from the columns when the
// instance outgrows linear dedup.
func (in *Instance) buildRows() {
	in.rows = make(map[string]int32, in.n+1)
	var kb [4 * inlineArity]byte
	kbuf := kb[:0]
	if len(in.cols) > inlineArity {
		kbuf = make([]byte, 0, 4*len(in.cols))
	}
	for r := 0; r < in.n; r++ {
		kbuf = kbuf[:0]
		for c := range in.cols {
			kbuf = appendID(kbuf, in.cols[c][r])
		}
		in.rows[string(kbuf)] = int32(r)
	}
}

// Interned reports whether the instance uses interned columnar storage.
func (in *Instance) Interned() bool { return in.dict != nil }

// InternDict returns the dictionary backing an interned instance, or
// nil for legacy storage.
func (in *Instance) InternDict() *Dict { return in.dict }

// Add inserts a tuple, validating arity and finite-domain membership.
// Adding a duplicate is a no-op.
func (in *Instance) Add(t Tuple) error {
	if len(t) != in.Schema.Arity() {
		return fmt.Errorf("relation: %s expects arity %d, got tuple %v", in.Schema.Name, in.Schema.Arity(), t)
	}
	for i, v := range t {
		if !in.Schema.Attrs[i].Domain.Contains(v) {
			return fmt.Errorf("relation: %s.%s: value %q outside finite domain %s",
				in.Schema.Name, in.Schema.Attrs[i].Name, v, in.Schema.Attrs[i].Domain)
		}
	}
	if in.dict != nil {
		in.addInterned(t)
		return nil
	}
	k := t.Key()
	if _, dup := in.tuples[k]; !dup {
		in.tuples[k] = t.Clone()
		in.sorted = nil
		in.gen++
	}
	return nil
}

// AddIDs is Add for a tuple given as ids of the shared dictionary
// (Shared). It validates exactly what Add validates; an interned
// instance appends the ids as a row without touching their values,
// and a legacy instance inserts the tuple the ids denote.
func (in *Instance) AddIDs(ids []int32) error {
	if in.dict == nil || len(ids) != in.Schema.Arity() {
		t := make(Tuple, len(ids))
		for i, id := range ids {
			t[i] = shared.Value(id)
		}
		return in.Add(t)
	}
	for i, a := range in.Schema.Attrs {
		if a.Domain.Kind == Finite && !a.Domain.Contains(in.dict.Value(ids[i])) {
			return fmt.Errorf("relation: %s.%s: value %q outside finite domain %s",
				in.Schema.Name, a.Name, in.dict.Value(ids[i]), a.Domain)
		}
	}
	in.addRow(ids)
	return nil
}

// AddStrings is Add for a tuple given as strings, typically substrings
// of a larger source text: it validates arity and finite-domain
// membership exactly as Add does, then an interned instance resolves
// every value under one dictionary lock acquisition (see
// Dict.InternStrings, which clones first-seen values) and appends the
// id row, while a legacy instance inserts the Tuple as Add would.
func (in *Instance) AddStrings(vals []string) error {
	tuple := func() Tuple {
		t := make(Tuple, len(vals))
		for i, v := range vals {
			t[i] = Value(v)
		}
		return t
	}
	if in.dict == nil || len(vals) != in.Schema.Arity() {
		return in.Add(tuple())
	}
	for i, a := range in.Schema.Attrs {
		if a.Domain.Kind == Finite && !a.Domain.Contains(Value(vals[i])) {
			return in.Add(tuple()) // reports the violation
		}
	}
	var ib [inlineArity]int32
	ids := ib[:]
	if len(vals) > inlineArity {
		ids = make([]int32, len(vals))
	}
	ids = ids[:len(vals)]
	in.dict.InternStrings(vals, ids)
	in.addRow(ids)
	return nil
}

// addInterned interns the tuple's values and appends a row unless the
// id-key already exists. The id and key scratch buffers live on the
// stack for ordinary arities, so a duplicate insert allocates nothing.
func (in *Instance) addInterned(t Tuple) {
	var ib [inlineArity]int32
	ids := ib[:0]
	if len(t) > inlineArity {
		ids = make([]int32, 0, len(t))
	}
	for _, v := range t {
		ids = append(ids, in.dict.Intern(v))
	}
	in.addRow(ids)
}

// addRow appends the id row unless it is already present.
func (in *Instance) addRow(ids []int32) {
	if in.rows == nil {
		if in.rowOf(ids) >= 0 {
			return
		}
		if in.n >= linearRowsMax {
			in.buildRows()
		}
	}
	if in.rows != nil {
		var kb [4 * inlineArity]byte
		key := AppendIDKey(kb[:0], ids)
		if _, dup := in.rows[string(key)]; dup {
			return
		}
		in.rows[string(key)] = int32(in.n)
	}
	for c := range in.cols {
		in.cols[c] = append(in.cols[c], ids[c])
	}
	in.n++
	in.sorted = nil
	in.gen++
}

// MustAdd is Add that panics on error; for literals in tests/examples.
func (in *Instance) MustAdd(t Tuple) {
	if err := in.Add(t); err != nil {
		panic(err)
	}
}

// Remove deletes a tuple if present.
func (in *Instance) Remove(t Tuple) {
	if in.dict != nil {
		in.removeInterned(t)
		return
	}
	k := t.Key()
	if _, ok := in.tuples[k]; ok {
		delete(in.tuples, k)
		in.sorted = nil
		in.gen++
	}
}

// removeInterned deletes a row by swapping the last row into its place
// (row numbers carry no ordering — deterministic order lives in the
// posting index's rank permutation, rebuilt per generation).
func (in *Instance) removeInterned(t Tuple) {
	if len(t) != len(in.cols) {
		return
	}
	var ib [inlineArity]int32
	ids := ib[:0]
	if len(t) > inlineArity {
		ids = make([]int32, 0, len(t))
	}
	for _, v := range t {
		id, ok := in.dict.ID(v)
		if !ok {
			return
		}
		ids = append(ids, id)
	}
	var row int32
	var kb [4 * inlineArity]byte
	if in.rows == nil {
		if row = in.rowOf(ids); row < 0 {
			return
		}
	} else {
		key := AppendIDKey(kb[:0], ids)
		r, ok := in.rows[string(key)]
		if !ok {
			return
		}
		row = r
		delete(in.rows, string(key))
	}
	last := int32(in.n - 1)
	if row != last {
		mk := kb[:0] // scratch no longer needed: rebuild as the moved row's key
		for c := range in.cols {
			in.cols[c][row] = in.cols[c][last]
			mk = appendID(mk, in.cols[c][row])
		}
		if in.rows != nil {
			in.rows[string(mk)] = row
		}
	}
	for c := range in.cols {
		in.cols[c] = in.cols[c][:last]
	}
	in.n--
	in.sorted = nil
	in.gen++
}

// Reset empties the instance in place, keeping its storage mode and —
// in interned mode — its column capacity, so a pooled scratch instance
// refills without reallocating. It counts as a mutation: any
// previously obtained view or cache is invalidated, and the usual
// no-readers-during-mutation rule applies.
func (in *Instance) Reset() {
	if in.dict != nil {
		for c := range in.cols {
			in.cols[c] = in.cols[c][:0]
		}
		in.rows = nil
		in.n = 0
		// Nothing may read the old generation's view any more, so its
		// buffers serve the next posting build.
		if ps := in.postings.Swap(nil); ps != nil {
			in.retired.Store(ps)
		}
	} else {
		clear(in.tuples)
	}
	in.sorted = nil
	in.gen++
}

// Reset empties every relation of the database in place; see
// Instance.Reset.
func (d *Database) Reset() {
	for _, in := range d.insts {
		in.Reset()
	}
}

// Generation returns the mutation counter. Two reads returning the same
// value bracket a span with no successful Add/Remove, so any cache built
// in between is still valid.
func (in *Instance) Generation() uint64 { return in.gen }

// Contains reports tuple membership. It is read-only in both storage
// modes (scratch buffers are stack-local), so concurrent readers of a
// quiescent instance may call it freely.
func (in *Instance) Contains(t Tuple) bool {
	if in.dict != nil {
		if len(t) != len(in.cols) {
			return false
		}
		var ib [inlineArity]int32
		ids := ib[:0]
		if len(t) > inlineArity {
			ids = make([]int32, 0, len(t))
		}
		for _, v := range t {
			id, ok := in.dict.ID(v)
			if !ok {
				return false
			}
			ids = append(ids, id)
		}
		if in.rows == nil {
			return in.rowOf(ids) >= 0
		}
		var kb [4 * inlineArity]byte
		key := AppendIDKey(kb[:0], ids)
		_, ok := in.rows[string(key)]
		return ok
	}
	_, ok := in.tuples[t.Key()]
	return ok
}

// Len returns the number of tuples.
func (in *Instance) Len() int {
	if in.dict != nil {
		return in.n
	}
	return len(in.tuples)
}

// Tuples returns all tuples in deterministic (lexicographic) order.
// The returned slice is a shared cache: callers must not modify it.
func (in *Instance) Tuples() []Tuple {
	if in.sorted == nil {
		if in.dict != nil {
			ps := in.ensurePostings()
			vals := in.dict.Snapshot()
			arity := len(in.cols)
			out := make([]Tuple, in.n)
			for k, r := range ps.rank {
				t := make(Tuple, arity)
				for c := 0; c < arity; c++ {
					t[c] = vals[in.cols[c][r]]
				}
				out[k] = t
			}
			in.sorted = out
			return in.sorted
		}
		out := make([]Tuple, 0, len(in.tuples))
		for _, t := range in.tuples {
			out = append(out, t)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		in.sorted = out
	}
	return in.sorted
}

// Warm populates the lazily-built tuple-order cache. Index builds and
// publications are atomic, so a warmed instance can be shared read-only
// across goroutines.
func (in *Instance) Warm() { in.Tuples() }

// Lookup returns the tuples whose column col holds v, in the same
// relative order as Tuples(). The secondary index for col is built on
// first use and invalidated by Add/Remove via the generation counter.
// The returned slice is shared: callers must not modify it.
func (in *Instance) Lookup(col int, v Value) []Tuple {
	if in.dict != nil {
		return in.lookupInterned(col, v)
	}
	ci := in.index(col)
	if ci == nil {
		return nil
	}
	return ci.buckets[v]
}

// Distinct returns the number of distinct values in column col, building
// the column index if needed. It is the selectivity statistic used by
// the cost-based join planner: an equality probe on col is expected to
// match about Len/Distinct tuples.
func (in *Instance) Distinct(col int) int {
	if in.dict != nil {
		if col < 0 || col >= len(in.cols) {
			return 0
		}
		return in.IDs().Distinct(col)
	}
	ci := in.index(col)
	if ci == nil {
		return 0
	}
	return len(ci.buckets)
}

// index returns the column index for col, building and publishing it on
// first use. Publication uses compare-and-swap on shared atomic slots:
// concurrent first probes may build the same index twice, but every
// build of one generation is identical, so losing the race is benign.
func (in *Instance) index(col int) *colIndex {
	arity := in.Schema.Arity()
	if col < 0 || col >= arity {
		return nil
	}
	set := in.indexes.Load()
	if set == nil || set.gen != in.gen {
		fresh := &indexSet{gen: in.gen, cols: make([]atomic.Pointer[colIndex], arity)}
		if in.indexes.CompareAndSwap(set, fresh) {
			set = fresh
		} else if set = in.indexes.Load(); set == nil || set.gen != in.gen {
			// Lost the swap to a concurrent mutation's stale set; use
			// the private fresh set for this call only.
			set = fresh
		}
	}
	if ci := set.cols[col].Load(); ci != nil {
		return ci
	}
	ci := in.buildColIndex(col)
	set.cols[col].CompareAndSwap(nil, ci)
	if pub := set.cols[col].Load(); pub != nil {
		return pub
	}
	return ci
}

// buildColIndex materializes the value → tuples map for one column. It
// iterates the tuple map directly (not Tuples()) so concurrent index
// builds never race the sorted-cache write.
func (in *Instance) buildColIndex(col int) *colIndex {
	obs.IndexBuilds.Inc()
	buckets := make(map[Value][]Tuple)
	for _, t := range in.tuples {
		buckets[t[col]] = append(buckets[t[col]], t)
	}
	for _, b := range buckets {
		sort.Slice(b, func(i, j int) bool { return b[i].Less(b[j]) })
	}
	return &colIndex{buckets: buckets}
}

// Clone returns a deep copy sharing the schema (and, in interned mode,
// the dictionary). The copy keeps the source's storage mode regardless
// of the current SetInterning toggle.
func (in *Instance) Clone() *Instance {
	if in.dict != nil {
		cp := &Instance{
			Schema: in.Schema,
			dict:   in.dict,
			cols:   make([][]int32, len(in.cols)),
			n:      in.n,
		}
		for c := range in.cols {
			cp.cols[c] = append([]int32(nil), in.cols[c]...)
		}
		if in.rows != nil {
			cp.rows = make(map[string]int32, len(in.rows))
			for k, r := range in.rows {
				cp.rows[k] = r
			}
		}
		return cp
	}
	cp := &Instance{Schema: in.Schema, tuples: make(map[string]Tuple, len(in.tuples))}
	for k, t := range in.tuples {
		cp.tuples[k] = t
	}
	return cp
}

// forEach visits every tuple in unspecified order without touching any
// shared cache, so it is safe on instances read concurrently.
func (in *Instance) forEach(fn func(Tuple) bool) {
	if in.dict != nil {
		vals := in.dict.Snapshot()
		arity := len(in.cols)
		for r := 0; r < in.n; r++ {
			t := make(Tuple, arity)
			for c := 0; c < arity; c++ {
				t[c] = vals[in.cols[c][r]]
			}
			if !fn(t) {
				return
			}
		}
		return
	}
	for _, t := range in.tuples {
		if !fn(t) {
			return
		}
	}
}

// SubsetOf reports whether every tuple of in occurs in o. Two interned
// instances compare by id-keys directly (they share the process-wide
// dictionary); mixed modes fall back to tuple membership.
func (in *Instance) SubsetOf(o *Instance) bool {
	if in.Len() > o.Len() {
		return false
	}
	switch {
	case in.dict != nil && in.dict == o.dict && in.rows != nil && o.rows != nil:
		for k := range in.rows {
			if _, ok := o.rows[k]; !ok {
				return false
			}
		}
		return true
	case in.dict == nil && o.dict == nil:
		for k := range in.tuples {
			if _, ok := o.tuples[k]; !ok {
				return false
			}
		}
		return true
	}
	ok := true
	in.forEach(func(t Tuple) bool {
		if !o.Contains(t) {
			ok = false
		}
		return ok
	})
	return ok
}

// Equal reports set equality of the two instances.
func (in *Instance) Equal(o *Instance) bool {
	return in.Len() == o.Len() && in.SubsetOf(o)
}

// Project returns the distinct projections of all tuples onto cols.
// On interned storage duplicate detection reuses the interned ids (one
// fixed-width key probe per row against a reused scratch buffer)
// instead of materializing a projected tuple and rebuilding its string
// key per row — the former dedup hot spot of the master-side
// projections.
func (in *Instance) Project(cols []int) []Tuple {
	if in.dict != nil {
		seen := make(map[string]bool, in.n)
		vals := in.dict.Snapshot()
		out := make([]Tuple, 0, 8)
		kb := make([]byte, 0, 4*len(cols))
		for r := 0; r < in.n; r++ {
			kb = kb[:0]
			for _, c := range cols {
				kb = appendID(kb, in.cols[c][r])
			}
			if seen[string(kb)] {
				continue
			}
			seen[string(kb)] = true
			p := make(Tuple, len(cols))
			for i, c := range cols {
				p[i] = vals[in.cols[c][r]]
			}
			out = append(out, p)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
		return out
	}
	seen := make(map[string]Tuple, len(in.tuples))
	for _, t := range in.tuples {
		p := t.Project(cols)
		seen[p.Key()] = p
	}
	out := make([]Tuple, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (in *Instance) String() string {
	var b strings.Builder
	b.WriteString(in.Schema.Name)
	b.WriteString(" {")
	for i, t := range in.Tuples() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteString("}")
	return b.String()
}

// Database is a named collection of instances — one per relation schema.
// It models both ordinary databases D over schema R and master data Dm
// over schema Rm.
type Database struct {
	// order holds the relation names sorted, and insts[i] the instance
	// of relation order[i]: lookups binary-search the few names, and
	// whole-database scans need no map iteration.
	order []string
	insts []*Instance
}

// NewDatabase returns a database with one empty instance per schema.
func NewDatabase(schemas ...*Schema) *Database {
	d := &Database{order: make([]string, 0, len(schemas)), insts: make([]*Instance, 0, len(schemas))}
	for _, s := range schemas {
		d.AddSchema(s)
	}
	return d
}

// AddSchema adds an empty instance for a new schema.
func (d *Database) AddSchema(s *Schema) {
	i, dup := slices.BinarySearch(d.order, s.Name)
	if dup {
		panic(fmt.Sprintf("relation: duplicate schema %s", s.Name))
	}
	d.order = slices.Insert(d.order, i, s.Name)
	d.insts = slices.Insert(d.insts, i, NewInstance(s))
}

// Relations returns the relation names in sorted order.
func (d *Database) Relations() []string { return d.order }

// Instance returns the instance of the named relation, or nil.
func (d *Database) Instance(name string) *Instance {
	if i, ok := slices.BinarySearch(d.order, name); ok {
		return d.insts[i]
	}
	return nil
}

// Schema returns the schema of the named relation, or nil.
func (d *Database) Schema(name string) *Schema {
	if in := d.Instance(name); in != nil {
		return in.Schema
	}
	return nil
}

// Add inserts a tuple into the named relation.
func (d *Database) Add(rel string, t Tuple) error {
	in := d.Instance(rel)
	if in == nil {
		return fmt.Errorf("relation: unknown relation %s", rel)
	}
	return in.Add(t)
}

// MustAdd is Add that panics on error; vals are plain strings.
func (d *Database) MustAdd(rel string, vals ...string) {
	if err := d.Add(rel, T(vals...)); err != nil {
		panic(err)
	}
}

// Contains reports whether the named relation holds the tuple.
func (d *Database) Contains(rel string, t Tuple) bool {
	in := d.Instance(rel)
	return in != nil && in.Contains(t)
}

// Clone returns a deep copy of the database (schemas shared).
func (d *Database) Clone() *Database {
	cp := &Database{order: slices.Clone(d.order), insts: make([]*Instance, len(d.insts))}
	for i, in := range d.insts {
		cp.insts[i] = in.Clone()
	}
	return cp
}

// Warm populates every instance's lazily-built tuple-order cache
// (Instance.Tuples sorts on first use). Call it before sharing the
// database read-only across goroutines: afterwards concurrent readers
// never write, so no synchronization is needed on the read path.
func (d *Database) Warm() {
	if d == nil {
		return
	}
	for _, in := range d.insts {
		in.Warm()
	}
}

// UnionInto adds all tuples of o into d. Relations of o missing from d
// are added with o's schema.
func (d *Database) UnionInto(o *Database) {
	for _, oin := range o.insts {
		in := d.Instance(oin.Schema.Name)
		if in == nil {
			d.AddSchema(oin.Schema)
			in = d.Instance(oin.Schema.Name)
		}
		for _, t := range oin.Tuples() {
			in.MustAdd(t)
		}
	}
}

// Union returns a fresh database with the tuples of both.
func (d *Database) Union(o *Database) *Database {
	u := d.Clone()
	u.UnionInto(o)
	return u
}

// SubsetOf reports whether d ⊆ o: every relation of d exists in o and is
// tuple-wise contained.
func (d *Database) SubsetOf(o *Database) bool {
	for i, in := range d.insts {
		oin := o.Instance(d.order[i])
		if oin == nil {
			if in.Len() > 0 {
				return false
			}
			continue
		}
		if !in.SubsetOf(oin) {
			return false
		}
	}
	return true
}

// Equal reports whether the two databases hold exactly the same tuples
// over the same relation names.
func (d *Database) Equal(o *Database) bool {
	return d.SubsetOf(o) && o.SubsetOf(d)
}

// TupleCount returns the total number of tuples across all relations.
func (d *Database) TupleCount() int {
	n := 0
	for _, in := range d.insts {
		n += in.Len()
	}
	return n
}

// IsEmpty reports whether every relation is empty.
func (d *Database) IsEmpty() bool { return d.TupleCount() == 0 }

// ActiveDomain returns the sorted set of all values occurring in d.
func (d *Database) ActiveDomain() []Value {
	if set, ok := d.InternedIDs(nil); ok {
		return shared.SortedIDValues(set)
	}
	seen := make(map[Value]bool)
	for _, in := range d.insts {
		in.valuesInto(seen)
	}
	return SortedValues(seen)
}

// InternedIDs merges the set of dictionary ids occurring anywhere in d
// into set (pass nil to start fresh) and returns it. ok is false — and
// set is returned unchanged — when some instance uses legacy storage or
// a non-shared dictionary, in which case callers must take the string
// path. A nil database contributes nothing and is ok.
func (d *Database) InternedIDs(set []uint64) ([]uint64, bool) {
	if d == nil {
		return set, true
	}
	for _, in := range d.insts {
		if in.dict != shared {
			return set, false
		}
	}
	for _, in := range d.insts {
		for _, col := range in.cols {
			for _, id := range col[:in.n] {
				set = SetIDBit(set, id)
			}
		}
	}
	return set, true
}

// InternedCol returns column col of an interned instance as raw ids in
// insertion order, or nil for legacy storage. The slice aliases the
// instance's storage: callers must not modify it and must not hold it
// across mutations.
func (in *Instance) InternedCol(col int) []int32 {
	if in.dict == nil || col < 0 || col >= len(in.cols) {
		return nil
	}
	return in.cols[col][:in.n]
}

// valuesInto adds every value occurring in the instance to seen.
func (in *Instance) valuesInto(seen map[Value]bool) {
	if in.dict != nil {
		vals := in.dict.Snapshot()
		for _, col := range in.cols {
			for _, id := range col {
				seen[vals[id]] = true
			}
		}
		return
	}
	for _, t := range in.tuples {
		for _, v := range t {
			seen[v] = true
		}
	}
}

func (d *Database) String() string {
	var b strings.Builder
	for i, in := range d.insts {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(in.String())
	}
	return b.String()
}

// SortedValues converts a value set to a sorted slice.
func SortedValues(set map[Value]bool) []Value {
	out := make([]Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
