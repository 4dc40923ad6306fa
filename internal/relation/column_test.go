package relation

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestPostingBaseMatchesTupleOrder checks the posting base against the
// definition it implements: the rank order is Tuple.Less order, and
// every posting container enumerates exactly its id's ranks in
// ascending order. Sizes straddle smallIndexRows and ordSortMinRows,
// and each instance is rebuilt through Reset so that recycled sets are
// covered too.
func TestPostingBaseMatchesTupleOrder(t *testing.T) {
	prev := SetInterning(true)
	t.Cleanup(func() { SetInterning(prev) })
	s := NewSchema("R", Attr("a"), Attr("b"), Attr("c"))
	rng := rand.New(rand.NewSource(5))
	// Value spellings whose string order differs from first-seen id
	// order, so an id-order sort would be caught.
	vals := make([]string, 40)
	for i := range vals {
		vals[i] = fmt.Sprintf("pb%02d", (i*17)%40)
	}
	in := NewInstance(s)
	for _, n := range []int{0, 1, 2, 3, 24, 25, 63, 64, 65, 300, 5, 1, 40} {
		in.Reset()
		want := make([]Tuple, 0, n)
		for in.Len() < n {
			tu := T(vals[rng.Intn(8)], vals[rng.Intn(40)], vals[rng.Intn(40)])
			if !in.Contains(tu) {
				want = append(want, tu)
			}
			in.MustAdd(tu)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		got := in.Tuples()
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d tuples, want %d", n, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("n=%d: rank %d holds %v, want %v", n, i, got[i], want[i])
			}
		}
		ix := in.IDs()
		for c := 0; c < s.Arity(); c++ {
			col := ix.Col(c)
			for k, id := range col {
				if Shared().Value(id) != want[k][c] {
					t.Fatalf("n=%d: column %d rank %d is %q, want %q", n, c, k, Shared().Value(id), want[k][c])
				}
			}
			if ix.Small() {
				continue
			}
			seen := map[int32]bool{}
			for _, id := range col {
				if seen[id] {
					continue
				}
				seen[id] = true
				var ranks []int32
				p := ix.Postings(c, id)
				if p.Bits != nil {
					p.Bits.ForEach(func(r int32) bool { ranks = append(ranks, r); return true })
				} else {
					ranks = p.Ranks
				}
				var wantRanks []int32
				for k, cid := range col {
					if cid == id {
						wantRanks = append(wantRanks, int32(k))
					}
				}
				if fmt.Sprint(ranks) != fmt.Sprint(wantRanks) || int(p.N) != len(wantRanks) {
					t.Fatalf("n=%d: postings of %q in column %d are %v (N=%d), want %v",
						n, Shared().Value(id), c, ranks, p.N, wantRanks)
				}
			}
			if got, want := ix.Distinct(c), len(seen); got != want {
				t.Fatalf("n=%d: Distinct(%d) = %d, want %d", n, c, got, want)
			}
		}
	}
}

// TestRecycledFragmentAllocs pins the recycled Δ-fragment contract: a
// Reset instance refilled with up to smallIndexRows id rows builds its
// index view into the retired set's buffers, allocating nothing.
func TestRecycledFragmentAllocs(t *testing.T) {
	prev := SetInterning(true)
	t.Cleanup(func() { SetInterning(prev) })
	s := NewSchema("R", Attr("a"), Attr("b"))
	rows := make([][]int32, smallIndexRows)
	for i := range rows {
		rows[i] = []int32{Shared().Intern(Value(fmt.Sprintf("rf%d", (i*7)%smallIndexRows))), Shared().Intern("rf")}
	}
	in := NewInstance(s)
	for _, n := range []int{1, 2, 8, smallIndexRows} {
		fill := func() {
			in.Reset()
			for _, r := range rows[:n] {
				if err := in.AddIDs(r); err != nil {
					t.Fatal(err)
				}
			}
			if ix := in.IDs(); ix.Rows() != n {
				t.Fatalf("view has %d rows, want %d", ix.Rows(), n)
			}
		}
		fill() // size the buffers
		if allocs := testing.AllocsPerRun(50, fill); allocs != 0 {
			t.Errorf("refilling %d rows allocates %.1f times, want 0", n, allocs)
		}
	}
}

// TestDictClonesFirstSeenValues: the dictionary outlives every caller,
// so a first-seen value must not alias the caller's buffer — otherwise
// one constant parsed out of a request body keeps the whole body alive.
func TestDictClonesFirstSeenValues(t *testing.T) {
	body := strings.Repeat("x", 600<<10) + "first-seen-constant"
	v := body[len(body)-len("first-seen-constant"):]
	start := uintptr(unsafe.Pointer(unsafe.StringData(body)))
	inBody := func(s Value) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(string(s))))
		return p >= start && p < start+uintptr(len(body))
	}

	d := NewDict()
	if got := d.Value(d.Intern(Value(v))); got != Value(v) || inBody(got) {
		t.Fatalf("Intern stored %q aliasing the caller's buffer: %v", got, inBody(got))
	}
	d = NewDict()
	ids := make([]int32, 2)
	d.InternStrings([]string{v, body[:3]}, ids)
	for i, id := range ids {
		if got := d.Value(id); inBody(got) {
			t.Fatalf("InternStrings value %d (%q) aliases the caller's buffer", i, got)
		}
	}
	// Already-known values resolve to the same ids without interning.
	again := make([]int32, 2)
	d.InternStrings([]string{body[:3], v}, again)
	if again[0] != ids[1] || again[1] != ids[0] || d.Len() != 2 {
		t.Fatalf("InternStrings re-resolution gave %v from %v (len %d)", again, ids, d.Len())
	}
}

// TestAddStringsMatchesAdd: AddStrings must hold the same tuples as
// Add in both storage modes, treat duplicates as no-ops and reject
// exactly what Add rejects, with Add's messages.
func TestAddStringsMatchesAdd(t *testing.T) {
	prev := SetInterning(true)
	t.Cleanup(func() { SetInterning(prev) })
	s := NewSchema("R", Attr("a"), FinAttr("f", "0", "1"))
	rows := [][]string{{"u", "0"}, {"v", "1"}, {"u", "0"}, {"w", "1"}}
	for _, interned := range []bool{true, false} {
		SetInterning(interned)
		byVal, byStr := NewInstance(s), NewInstance(s)
		for _, r := range rows {
			byVal.MustAdd(T(r...))
			if err := byStr.AddStrings(r); err != nil {
				t.Fatalf("interned=%v: AddStrings(%v): %v", interned, r, err)
			}
		}
		if !byStr.Equal(byVal) || byStr.Len() != 3 {
			t.Fatalf("interned=%v: AddStrings gave %v, Add gave %v", interned, byStr, byVal)
		}
		for _, bad := range [][]string{{"u", "2"}, {"u"}, {"u", "0", "x"}} {
			errStr, errVal := byStr.AddStrings(bad), byVal.Add(T(bad...))
			if errStr == nil || errVal == nil || errStr.Error() != errVal.Error() {
				t.Fatalf("interned=%v: AddStrings(%v) error %v, Add says %v", interned, bad, errStr, errVal)
			}
		}
	}
}

// TestRecycledViewConcurrentReaders: after a Reset and refill, the
// first concurrent readers race to build the new view; exactly one may
// rebuild into the retired set, and every reader must see the same,
// correct order.
func TestRecycledViewConcurrentReaders(t *testing.T) {
	prev := SetInterning(true)
	t.Cleanup(func() { SetInterning(prev) })
	s := NewSchema("R", Attr("a"), Attr("b"))
	in := NewInstance(s)
	for round := 0; round < 20; round++ {
		in.Reset()
		want := make([]Tuple, 0, 30)
		for i := 0; i < 3+round; i++ {
			tu := T(fmt.Sprintf("cr%02d", (i*13)%31), "x")
			in.MustAdd(tu)
			want = append(want, tu)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ix := in.IDs()
				if ix.Rows() != len(want) {
					t.Errorf("round %d: view has %d rows, want %d", round, ix.Rows(), len(want))
					return
				}
				for k, id := range ix.Col(0) {
					if Shared().Value(id) != want[k][0] {
						t.Errorf("round %d: rank %d holds %q, want %q", round, k, Shared().Value(id), want[k][0])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
