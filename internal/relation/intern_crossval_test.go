package relation

import (
	"math/rand"
	"testing"
)

// Cross-validation of the interned columnar Instance against the legacy
// string-map representation: an identical randomized sequence of
// mutations and queries must be observationally equivalent — same
// membership answers, same deterministic tuple order, same lookup and
// projection results, same distinct counts and active domain.

// TestInstanceInternedMatchesLegacy replays a random op script against
// one interned and one legacy instance and compares every observation.
// The script length crosses linearRowsMax and smallIndexRows so both
// the map-free linear-scan path and the map/posting paths are hit.
func TestInstanceInternedMatchesLegacy(t *testing.T) {
	prev := SetInterning(true)
	t.Cleanup(func() { SetInterning(prev) })

	s := NewSchema("R", Attr("a"), Attr("b"), Attr("c"))
	vals := []string{"u", "v", "w", "x", "y"}
	rng := rand.New(rand.NewSource(11))

	for trial := 0; trial < 40; trial++ {
		SetInterning(true)
		ii := NewInstance(s)
		SetInterning(false)
		li := NewInstance(s)
		if !ii.Interned() || li.Interned() {
			t.Fatalf("trial %d: storage modes not split: interned=%v legacy=%v", trial, ii.Interned(), li.Interned())
		}
		rt := func() Tuple {
			return Tuple{Value(vals[rng.Intn(5)]), Value(vals[rng.Intn(5)]), Value(vals[rng.Intn(5)])}
		}
		for op := 0; op < 120; op++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // add (duplicates included)
				tu := rt()
				ie, le := ii.Add(tu), li.Add(tu)
				if (ie == nil) != (le == nil) {
					t.Fatalf("trial %d op %d: Add(%v) errors diverge: interned=%v legacy=%v", trial, op, tu, ie, le)
				}
			case 5: // remove (often a miss)
				tu := rt()
				ii.Remove(tu)
				li.Remove(tu)
			case 6: // membership
				tu := rt()
				if ii.Contains(tu) != li.Contains(tu) {
					t.Fatalf("trial %d op %d: Contains(%v) diverges", trial, op, tu)
				}
			case 7: // lookup on a random column
				col := rng.Intn(3)
				v := Value(vals[rng.Intn(5)])
				it, lt := ii.Lookup(col, v), li.Lookup(col, v)
				if len(it) != len(lt) {
					t.Fatalf("trial %d op %d: Lookup(%d, %q) sizes diverge: %d vs %d", trial, op, col, v, len(it), len(lt))
				}
				for i := range it {
					if !it[i].Equal(lt[i]) {
						t.Fatalf("trial %d op %d: Lookup(%d, %q)[%d] diverges: %v vs %v", trial, op, col, v, i, it[i], lt[i])
					}
				}
			case 8: // distinct count on a random column
				col := rng.Intn(3)
				if ii.Distinct(col) != li.Distinct(col) {
					t.Fatalf("trial %d op %d: Distinct(%d) diverges: %d vs %d",
						trial, op, col, ii.Distinct(col), li.Distinct(col))
				}
			case 9: // projection
				cols := []int{rng.Intn(3), rng.Intn(3)}
				ip, lp := ii.Project(cols), li.Project(cols)
				if len(ip) != len(lp) {
					t.Fatalf("trial %d op %d: Project(%v) sizes diverge: %d vs %d", trial, op, cols, len(ip), len(lp))
				}
				for i := range ip {
					if !ip[i].Equal(lp[i]) {
						t.Fatalf("trial %d op %d: Project(%v)[%d] diverges: %v vs %v", trial, op, cols, i, ip[i], lp[i])
					}
				}
			}
			if ii.Len() != li.Len() {
				t.Fatalf("trial %d op %d: Len diverges: interned %d legacy %d", trial, op, ii.Len(), li.Len())
			}
		}
		// Full deterministic enumeration must coincide (interned rank
		// order vs legacy sorted order).
		it, lt := ii.Tuples(), li.Tuples()
		if len(it) != len(lt) {
			t.Fatalf("trial %d: Tuples sizes diverge: %d vs %d", trial, len(it), len(lt))
		}
		for i := range it {
			if !it[i].Equal(lt[i]) {
				t.Fatalf("trial %d: Tuples[%d] diverges: %v vs %v", trial, i, it[i], lt[i])
			}
		}
		// Clone must preserve representation and contents.
		if !ii.Clone().Equal(li) || !li.Clone().Equal(ii) {
			t.Fatalf("trial %d: clones not equal across modes", trial)
		}
	}
}

// TestDatabaseInternedMatchesLegacy checks database-level observations
// (ActiveDomain's interned bitset scan vs the legacy map path, subset
// and equality checks) across the two representations.
func TestDatabaseInternedMatchesLegacy(t *testing.T) {
	prev := SetInterning(true)
	t.Cleanup(func() { SetInterning(prev) })

	mk := func() (*Database, func(rel string, vals ...string)) {
		r := NewSchema("R", Attr("a"), Attr("b"))
		f := NewSchema("F", FinAttr("p", "0", "1"))
		db := NewDatabase(r, f)
		return db, func(rel string, vals ...string) { db.MustAdd(rel, vals...) }
	}
	rng := rand.New(rand.NewSource(23))
	vals := []string{"a", "b", "c", "d"}
	for trial := 0; trial < 60; trial++ {
		SetInterning(true)
		idb, iadd := mk()
		SetInterning(false)
		ldb, ladd := mk()
		for i, n := 0, rng.Intn(30); i < n; i++ {
			if rng.Intn(4) == 0 {
				p := []string{"0", "1"}[rng.Intn(2)]
				iadd("F", p)
				ladd("F", p)
			} else {
				a, b := vals[rng.Intn(4)], vals[rng.Intn(4)]
				iadd("R", a, b)
				ladd("R", a, b)
			}
		}
		ia, la := idb.ActiveDomain(), ldb.ActiveDomain()
		if len(ia) != len(la) {
			t.Fatalf("trial %d: ActiveDomain sizes diverge: %d vs %d\n%v\n%v", trial, len(ia), len(la), ia, la)
		}
		for i := range ia {
			if ia[i] != la[i] {
				t.Fatalf("trial %d: ActiveDomain[%d] diverges: %q vs %q", trial, i, ia[i], la[i])
			}
		}
		if !idb.Equal(ldb) || !ldb.Equal(idb) {
			t.Fatalf("trial %d: databases not Equal across modes", trial)
		}
		if !idb.SubsetOf(ldb) || !ldb.SubsetOf(idb) {
			t.Fatalf("trial %d: SubsetOf not symmetric across modes", trial)
		}
		if idb.TupleCount() != ldb.TupleCount() {
			t.Fatalf("trial %d: TupleCount diverges: %d vs %d", trial, idb.TupleCount(), ldb.TupleCount())
		}
	}
}

// TestAddIDsMatchesAdd inserts the same tuples by value (Add) and by
// shared-dictionary id (AddIDs) in both storage modes: the instances
// must hold the same tuples, duplicates must be no-ops, and the
// validation errors must be Add's.
func TestAddIDsMatchesAdd(t *testing.T) {
	prev := SetInterning(true)
	t.Cleanup(func() { SetInterning(prev) })
	s := NewSchema("R", Attr("a"), FinAttr("f", "0", "1"))
	rows := []Tuple{T("u", "0"), T("v", "1"), T("u", "0"), T("w", "1")}
	for _, interned := range []bool{true, false} {
		SetInterning(interned)
		byVal, byID := NewInstance(s), NewInstance(s)
		for _, r := range rows {
			byVal.MustAdd(r)
			ids := []int32{Shared().Intern(r[0]), Shared().Intern(r[1])}
			if err := byID.AddIDs(ids); err != nil {
				t.Fatalf("interned=%v: AddIDs(%v): %v", interned, r, err)
			}
		}
		if !byID.Equal(byVal) || byID.Len() != 3 {
			t.Fatalf("interned=%v: AddIDs gave %v, Add gave %v", interned, byID, byVal)
		}
		bad := []int32{Shared().Intern("u"), Shared().Intern("2")}
		errID, errVal := byID.AddIDs(bad), byVal.Add(T("u", "2"))
		if errID == nil || errVal == nil || errID.Error() != errVal.Error() {
			t.Fatalf("interned=%v: finite-domain error %v, Add says %v", interned, errID, errVal)
		}
		if err := byID.AddIDs(bad[:1]); err == nil {
			t.Fatalf("interned=%v: arity mismatch accepted", interned)
		}
	}
}
