package relation

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// These tests replay random op scripts against a plain set model — a
// map from Tuple.Key to tuple kept in the test — and compare every
// observation the columnar Instance and Database expose: membership,
// the deterministic tuple order, posting probes, distinct counts,
// projections and the active domain.

// modelTuples returns the model's tuples in Tuple.Less order.
func modelTuples(m map[string]Tuple) []Tuple {
	out := make([]Tuple, 0, len(m))
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// probe returns the ranks a join probe of id in column col visits: the
// filtered column scan on a small view, the posting container
// otherwise.
func probe(ix IDIndex, col int, id int32) []int32 {
	var out []int32
	if ix.Small() {
		for r, x := range ix.Col(col) {
			if x == id {
				out = append(out, int32(r))
			}
		}
		return out
	}
	p := ix.Postings(col, id)
	out = append(out, p.Ranks...)
	if p.Bits != nil {
		p.Bits.ForEach(func(r int32) bool { out = append(out, r); return true })
	}
	return out
}

func sameTupleSeq(a, b []Tuple) bool { return slices.EqualFunc(a, b, Tuple.Equal) }

// TestInstanceInternedMatchesLegacy replays a random op script against
// an instance and the set model and compares every observation. (The
// set model is the "legacy" side of the name: it stands where a
// string-map storage layout used to.) The
// script length crosses linearRowsMax and smallIndexRows so both the
// map-free linear-scan path and the map/posting paths are hit.
func TestInstanceInternedMatchesLegacy(t *testing.T) {
	s := NewSchema("R", Attr("a"), Attr("b"), Attr("c"))
	vals := []string{"u", "v", "w", "x", "y"}
	rng := rand.New(rand.NewSource(11))

	for trial := 0; trial < 40; trial++ {
		in := NewInstance(s)
		model := make(map[string]Tuple)
		rt := func() Tuple {
			return Tuple{Value(vals[rng.Intn(5)]), Value(vals[rng.Intn(5)]), Value(vals[rng.Intn(5)])}
		}
		for op := 0; op < 120; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // add (duplicates included)
				tu := rt()
				if err := in.Add(tu); err != nil {
					t.Fatalf("trial %d op %d: Add(%v): %v", trial, op, tu, err)
				}
				model[tu.Key()] = tu
			case 5: // remove (often a miss)
				tu := rt()
				in.Remove(tu)
				delete(model, tu.Key())
			case 6: // membership
				tu := rt()
				if _, want := model[tu.Key()]; in.Contains(tu) != want {
					t.Fatalf("trial %d op %d: Contains(%v) = %v, model %v", trial, op, tu, !want, want)
				}
			case 7: // probe a random column
				col := rng.Intn(3)
				v := Value(vals[rng.Intn(5)])
				var want []Tuple
				for _, tu := range modelTuples(model) {
					if tu[col] == v {
						want = append(want, tu)
					}
				}
				var got []Tuple
				all := in.Tuples()
				for _, r := range probe(in.IDs(), col, Shared().Intern(v)) {
					got = append(got, all[r])
				}
				if !sameTupleSeq(got, want) {
					t.Fatalf("trial %d op %d: probe(%d, %q) = %v, model %v", trial, op, col, v, got, want)
				}
			case 8: // distinct count on a random column
				col := rng.Intn(3)
				seen := make(map[Value]bool)
				for _, tu := range model {
					seen[tu[col]] = true
				}
				if in.Distinct(col) != len(seen) {
					t.Fatalf("trial %d op %d: Distinct(%d) = %d, model %d", trial, op, col, in.Distinct(col), len(seen))
				}
			case 9: // projection
				cols := []int{rng.Intn(3), rng.Intn(3)}
				pm := make(map[string]Tuple)
				for _, tu := range model {
					p := tu.Project(cols)
					pm[p.Key()] = p
				}
				if got, want := in.Project(cols), modelTuples(pm); !sameTupleSeq(got, want) {
					t.Fatalf("trial %d op %d: Project(%v) = %v, model %v", trial, op, cols, got, want)
				}
			}
			if in.Len() != len(model) {
				t.Fatalf("trial %d op %d: Len %d, model %d", trial, op, in.Len(), len(model))
			}
		}
		if got, want := in.Tuples(), modelTuples(model); !sameTupleSeq(got, want) {
			t.Fatalf("trial %d: Tuples = %v, model %v", trial, got, want)
		}
		if cp := in.Clone(); !cp.Equal(in) || !sameTupleSeq(cp.Tuples(), in.Tuples()) {
			t.Fatalf("trial %d: clone differs", trial)
		}
	}
}

// TestDatabaseInternedMatchesLegacy checks database-level observations
// against the set model: the active domain, the tuple count, and
// subset and equality checks against a copy rebuilt from the model in
// map order, before and after the copy drops a tuple.
func TestDatabaseInternedMatchesLegacy(t *testing.T) {
	r := NewSchema("R", Attr("a"), Attr("b"))
	f := NewSchema("F", FinAttr("p", "0", "1"))
	rng := rand.New(rand.NewSource(23))
	vals := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		db := NewDatabase(r, f)
		model := map[string]map[string]Tuple{"R": {}, "F": {}}
		add := func(rel string, vs ...string) {
			db.MustAdd(rel, vs...)
			model[rel][T(vs...).Key()] = T(vs...)
		}
		for i, n := 0, rng.Intn(30); i < n; i++ {
			if rng.Intn(4) == 0 {
				add("F", []string{"0", "1"}[rng.Intn(2)])
			} else {
				add("R", vals[rng.Intn(4)], vals[rng.Intn(4)])
			}
		}
		seen := make(map[Value]bool)
		count := 0
		cp := NewDatabase(r, f)
		for rel, m := range model {
			for _, tu := range m {
				for _, v := range tu {
					seen[v] = true
				}
				count++
				cp.MustAdd(rel, tupleStrings(tu)...)
			}
		}
		if got, want := db.ActiveDomain(), SortedValues(seen); !slices.Equal(got, want) {
			t.Fatalf("trial %d: ActiveDomain = %v, model %v", trial, got, want)
		}
		if db.TupleCount() != count {
			t.Fatalf("trial %d: TupleCount = %d, model %d", trial, db.TupleCount(), count)
		}
		if !db.Equal(cp) || !cp.Equal(db) || !db.SubsetOf(cp) || !cp.SubsetOf(db) {
			t.Fatalf("trial %d: database and its model copy not Equal", trial)
		}
		if count == 0 {
			continue
		}
		for _, tu := range cp.Instance("R").Tuples() {
			cp.Instance("R").Remove(tu)
			break
		}
		if cp.TupleCount() == count { // R was empty: drop from F instead
			cp.Instance("F").Remove(cp.Instance("F").Tuples()[0])
		}
		if !cp.SubsetOf(db) || db.SubsetOf(cp) || db.Equal(cp) {
			t.Fatalf("trial %d: subset checks wrong after the copy dropped a tuple", trial)
		}
	}
}

// TestAddIDsMatchesAdd inserts the same tuples by value (Add) and by
// shared-dictionary id (AddIDs): the instances must hold the same
// tuples, duplicates must be no-ops, and the validation errors must be
// Add's.
func TestAddIDsMatchesAdd(t *testing.T) {
	s := NewSchema("R", Attr("a"), FinAttr("f", "0", "1"))
	rows := []Tuple{T("u", "0"), T("v", "1"), T("u", "0"), T("w", "1")}
	byVal, byID := NewInstance(s), NewInstance(s)
	for _, r := range rows {
		byVal.MustAdd(r)
		ids := []int32{Shared().Intern(r[0]), Shared().Intern(r[1])}
		if err := byID.AddIDs(ids); err != nil {
			t.Fatalf("AddIDs(%v): %v", r, err)
		}
	}
	if !byID.Equal(byVal) || byID.Len() != 3 {
		t.Fatalf("AddIDs gave %v, Add gave %v", byID, byVal)
	}
	bad := []int32{Shared().Intern("u"), Shared().Intern("2")}
	errID, errVal := byID.AddIDs(bad), byVal.Add(T("u", "2"))
	if errID == nil || errVal == nil || errID.Error() != errVal.Error() {
		t.Fatalf("finite-domain error %v, Add says %v", errID, errVal)
	}
	if err := byID.AddIDs(bad[:1]); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}
