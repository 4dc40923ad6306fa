package cq

import (
	"errors"
	"fmt"

	"repro/internal/query"
	"repro/internal/relation"
)

// Freeze builds the canonical (frozen) database of the tableau: each
// variable becomes a distinct fresh constant and the templates become
// facts. It returns the database and the frozen head tuple. The fresh
// constants are chosen outside the given avoid set.
func (t *Tableau) Freeze(schemas map[string]*relation.Schema, avoid map[relation.Value]bool) (*relation.Database, relation.Tuple, error) {
	b := make(query.Binding, len(t.Vars))
	i := 0
	for _, v := range t.Vars {
		for {
			i++
			cand := relation.Value(fmt.Sprintf("_frz%d", i))
			if !avoid[cand] {
				b[v] = cand
				break
			}
		}
	}
	db, err := t.Apply(b, schemas)
	if err != nil {
		return nil, nil, err
	}
	head, _ := t.HeadTuple(b)
	return db, head, nil
}

// Contained reports whether q1 ⊆ q2 holds over all databases of the
// given schemas, by the Chandra–Merlin homomorphism test: evaluate q2 on
// the frozen canonical database of q1 and look for q1's frozen head.
//
// The test is exact for inequality-free q2. When q2 contains ≠ atoms the
// test is sound (a "true" answer is correct) but may under-approximate,
// because a homomorphism into the canonical database — where all frozen
// variables are pairwise distinct — need not exist for every containment
// witness. Callers needing exactness must pass diseq-free q2.
func Contained(q1, q2 *CQ, schemas map[string]*relation.Schema) (bool, error) {
	if q1.Arity() != q2.Arity() {
		return false, fmt.Errorf("cq: containment between arities %d and %d", q1.Arity(), q2.Arity())
	}
	t1, err := q1.Compiled()
	var unsat *ErrUnsatisfiable
	if errors.As(err, &unsat) {
		return true, nil // unsatisfiable q1 is contained in everything
	}
	if err != nil {
		return false, err
	}
	avoid := make(map[relation.Value]bool)
	for _, c := range append(q1.Constants(), q2.Constants()...) {
		avoid[c] = true
	}
	// Freezing ignores finite domains deliberately: the canonical
	// database is a syntactic object. Build permissive clones of the
	// schemas so frozen constants are accepted.
	perm := make(map[string]*relation.Schema, len(schemas))
	for name, s := range schemas {
		attrs := make([]relation.Attribute, s.Arity())
		for i, a := range s.Attrs {
			attrs[i] = relation.Attr(a.Name)
		}
		perm[name] = relation.NewSchema(name, attrs...)
	}
	db, head, err := t1.Freeze(perm, avoid)
	if err != nil {
		return false, err
	}
	for _, ans := range q2.Eval(db) {
		if ans.Equal(head) {
			return true, nil
		}
	}
	return false, nil
}

// Specializes reports whether spec is a specialization of q: spec ⊆ q
// over all databases of the given schemas, so every answer a complete
// spec certifies is an answer of q. It is Contained(spec, q) under a
// name that states the lattice direction the approximation engine
// cares about. Exact for inequality-free q; sound otherwise (a "true"
// answer is always correct), which is the direction certification
// needs.
func Specializes(spec, q *CQ, schemas map[string]*relation.Schema) (bool, error) {
	return Contained(spec, q, schemas)
}

// Equivalent reports mutual containment of two CQs (exact for
// inequality-free queries).
func Equivalent(q1, q2 *CQ, schemas map[string]*relation.Schema) (bool, error) {
	a, err := Contained(q1, q2, schemas)
	if err != nil || !a {
		return false, err
	}
	return Contained(q2, q1, schemas)
}
