package textq

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cc"
	"repro/internal/qlang"
	"repro/internal/query"
	"repro/internal/relation"
)

// FormatSchemas renders schemas as "rel …" declarations in name order.
func FormatSchemas(schemas map[string]*relation.Schema) string {
	names := make([]string, 0, len(schemas))
	for n := range schemas {
		names = append(names, n)
	}
	sortStrings(names)
	var b strings.Builder
	for _, n := range names {
		s := schemas[n]
		parts := make([]string, len(s.Attrs))
		for i, a := range s.Attrs {
			if a.Domain.Kind == relation.Finite {
				vals := make([]string, len(a.Domain.Values))
				for j, v := range a.Domain.Values {
					vals[j] = quoteIfNeeded(string(v))
				}
				parts[i] = fmt.Sprintf("%s: {%s}", a.Name, strings.Join(vals, ", "))
			} else {
				parts[i] = a.Name
			}
		}
		fmt.Fprintf(&b, "rel %s(%s)\n", s.Name, strings.Join(parts, ", "))
	}
	return b.String()
}

// FormatDatabase renders a database as fact lines, relation by relation
// in name order, tuples in deterministic order.
func FormatDatabase(d *relation.Database) string {
	var b strings.Builder
	for _, name := range d.Relations() {
		for _, t := range d.Instance(name).Tuples() {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = quoteIfNeeded(string(v))
			}
			fmt.Fprintf(&b, "%s(%s).\n", name, strings.Join(parts, ", "))
		}
	}
	return b.String()
}

// FormatFact renders one fact line in ParseFacts' grammar (the
// per-tuple unit FormatDatabase emits).
func FormatFact(rel string, t relation.Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = quoteIfNeeded(string(v))
	}
	return rel + "(" + strings.Join(parts, ", ") + ")."
}

// FormatQuery renders a query back into ParseQuery's grammar: CQs and
// UCQs as rule lines, datalog programs as an "output" header plus
// rules. Variables keep their names when the parser reads them as
// variables; others — Go-built lower-case names, which would re-parse
// as constants — are renamed per rule (see ruleVarNames), so the text
// denotes the same query. It errors for query forms the grammar has no
// syntax for (FO, ∃FO⁺) and for constant values no quoting can
// represent (a value containing a line break, or both quote
// characters).
func FormatQuery(q qlang.Query) (string, error) {
	if c, ok := qlang.AsCQ(q); ok {
		line, err := formatRule(c.Name, c.Head, c.Atoms, c.Conds)
		if err != nil {
			return "", err
		}
		return line + "\n", nil
	}
	if u, ok := qlang.AsUCQ(q); ok {
		var b strings.Builder
		for _, d := range u.Disjuncts {
			// Disjuncts carry generated names (Q_1, Q_2, …); the grammar
			// wants every disjunct under the union's head predicate.
			line, err := formatRule(u.Name, d.Head, d.Atoms, d.Conds)
			if err != nil {
				return "", err
			}
			b.WriteString(line)
			b.WriteByte('\n')
		}
		return b.String(), nil
	}
	if p, ok := qlang.AsFP(q); ok {
		var b strings.Builder
		fmt.Fprintf(&b, "output %s\n", p.Output)
		for _, r := range p.Rules {
			var atoms []query.RelAtom
			var conds []query.EqAtom
			for _, l := range r.Body {
				if l.Atom != nil {
					atoms = append(atoms, *l.Atom)
				} else {
					conds = append(conds, *l.Cond)
				}
			}
			names := ruleVarNames(r.Head.Args, atoms, conds)
			head, err := formatAtom(r.Head, names)
			if err != nil {
				return "", err
			}
			parts := make([]string, len(r.Body))
			for i, l := range r.Body {
				var err error
				if l.Atom != nil {
					parts[i], err = formatAtom(*l.Atom, names)
				} else {
					parts[i], err = formatCond(*l.Cond, names)
				}
				if err != nil {
					return "", err
				}
			}
			fmt.Fprintf(&b, "%s :- %s\n", head, strings.Join(parts, ", "))
		}
		return b.String(), nil
	}
	return "", fmt.Errorf("textq: no textual form for %v queries", q.Lang())
}

// FormatConstraints renders a constraint set back into
// ParseConstraints' grammar, naming variables as FormatQuery does.
// Reverse containments and non-CQ bodies have no syntax and error.
func FormatConstraints(s *cc.Set) (string, error) {
	var b strings.Builder
	for _, c := range s.Constraints {
		if c.Reverse {
			return "", fmt.Errorf("textq: no textual form for reverse containment %s", c.Name)
		}
		cqq, ok := qlang.AsCQ(c.Q)
		if !ok {
			return "", fmt.Errorf("textq: constraint %s has a non-CQ body", c.Name)
		}
		line, err := formatRule(cqq.Name, cqq.Head, cqq.Atoms, cqq.Conds)
		if err != nil {
			return "", err
		}
		rhs := "empty"
		if !c.P.IsEmptySet() {
			cols := make([]string, len(c.P.Cols))
			for i, col := range c.P.Cols {
				cols[i] = strconv.Itoa(col)
			}
			rhs = c.P.Rel + "[" + strings.Join(cols, ", ") + "]"
		}
		fmt.Fprintf(&b, "cc %s <= %s\n", line, rhs)
	}
	return b.String(), nil
}

// formatRule renders one "Name(head) :- body" line.
func formatRule(name string, head []query.Term, atoms []query.RelAtom, conds []query.EqAtom) (string, error) {
	names := ruleVarNames(head, atoms, conds)
	args := make([]string, len(head))
	for i, t := range head {
		var err error
		if args[i], err = formatTerm(t, names); err != nil {
			return "", err
		}
	}
	parts := make([]string, 0, len(atoms)+len(conds))
	for _, a := range atoms {
		s, err := formatAtom(a, names)
		if err != nil {
			return "", err
		}
		parts = append(parts, s)
	}
	for _, c := range conds {
		s, err := formatCond(c, names)
		if err != nil {
			return "", err
		}
		parts = append(parts, s)
	}
	return fmt.Sprintf("%s(%s) :- %s", name, strings.Join(args, ", "), strings.Join(parts, ", ")), nil
}

// ruleVarNames assigns every variable of one rule the name it is
// written under. A name the parser reads back as a variable (initial
// upper-case letter or underscore, identifier characters only) is
// kept. Any other name is upper-cased — "x1" becomes "X1", a name not
// starting with a lower-case letter gets a "V" prefix, characters the
// lexer cannot read become "_" — and suffixed "_2", "_3", … until it
// collides with no other variable of the rule. Variables are
// rule-scoped, so one map serves the head, the body and the
// (in)equalities alike.
func ruleVarNames(head []query.Term, atoms []query.RelAtom, conds []query.EqAtom) map[string]string {
	var order []string
	seen := map[string]bool{}
	note := func(t query.Term) {
		if t.IsVar && !seen[t.Name] {
			seen[t.Name] = true
			order = append(order, t.Name)
		}
	}
	for _, t := range head {
		note(t)
	}
	for _, a := range atoms {
		for _, t := range a.Args {
			note(t)
		}
	}
	for _, c := range conds {
		note(c.L)
		note(c.R)
	}
	names := make(map[string]string, len(order))
	taken := map[string]bool{}
	for _, n := range order {
		if isVarName(n) && isIdent(n) {
			names[n] = n
			taken[n] = true
		}
	}
	for _, n := range order {
		if _, kept := names[n]; kept {
			continue
		}
		base := upperVarName(n)
		cand := base
		for k := 2; taken[cand]; k++ {
			cand = base + "_" + strconv.Itoa(k)
		}
		names[n] = cand
		taken[cand] = true
	}
	return names
}

// upperVarName maps a name onto one the parser reads as a variable.
func upperVarName(n string) string {
	var b strings.Builder
	switch {
	case n != "" && n[0] >= 'a' && n[0] <= 'z':
		b.WriteByte(n[0] - 'a' + 'A')
		n = n[1:]
	default:
		b.WriteByte('V')
	}
	for _, r := range n {
		if !isIdentRune(r) {
			r = '_'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// isIdent reports whether the lexer reads s as one identifier.
func isIdent(s string) bool {
	for _, r := range s {
		if !isIdentRune(r) {
			return false
		}
	}
	return s != ""
}

func formatAtom(a query.RelAtom, names map[string]string) (string, error) {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		var err error
		if parts[i], err = formatTerm(t, names); err != nil {
			return "", err
		}
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")", nil
}

func formatCond(e query.EqAtom, names map[string]string) (string, error) {
	l, err := formatTerm(e.L, names)
	if err != nil {
		return "", err
	}
	r, err := formatTerm(e.R, names)
	if err != nil {
		return "", err
	}
	op := " = "
	if e.Neg {
		op = " != "
	}
	return l + op + r, nil
}

// formatTerm renders a term in query position: variables bare under
// their rule names (ruleVarNames), constants always quoted (a bare
// identifier constant starting with an upper-case letter would
// re-parse as a variable).
func formatTerm(t query.Term, names map[string]string) (string, error) {
	if t.IsVar {
		return names[t.Name], nil
	}
	s := string(t.Val)
	if strings.ContainsRune(s, '\n') {
		return "", fmt.Errorf("textq: constant %q contains a line break; no quoting can represent it", s)
	}
	if !strings.ContainsRune(s, '\'') {
		return "'" + s + "'", nil
	}
	if !strings.ContainsRune(s, '"') {
		return `"` + s + `"`, nil
	}
	return "", fmt.Errorf("textq: constant %q contains both quote characters; no quoting can represent it", s)
}

// quoteIfNeeded quotes values the lexer could not re-read bare: empty
// strings and values with non-identifier characters. The quote
// character is chosen to avoid one embedded in the value; a value
// containing both quote characters or a line break has no
// representation in the grammar (callers holding such values cannot
// round-trip — see FuzzParseDatabase).
func quoteIfNeeded(s string) string {
	if s == "" {
		return `""`
	}
	bare := true
	for _, r := range s {
		if !isIdentRune(r) {
			bare = false
			break
		}
	}
	if bare {
		return s
	}
	if !strings.ContainsRune(s, '"') {
		return `"` + s + `"`
	}
	return "'" + s + "'"
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
