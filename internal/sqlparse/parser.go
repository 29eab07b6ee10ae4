package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"chronicledb/internal/value"
)

// Parse parses a semicolon-separated script into statements, each with its
// text (Statement.Text).
func Parse(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []Statement
	for !p.at(tokEOF) {
		if p.atPunct(";") {
			p.next()
			continue
		}
		first := p.i
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		s.setText(src[toks[first].pos:toks[p.i-1].end])
		out = append(out, s)
		if !p.atPunct(";") && !p.at(tokEOF) {
			return nil, p.errf("expected ';' after statement")
		}
	}
	return out, nil
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (Statement, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token          { return p.toks[p.i] }
func (p *parser) next() token         { t := p.toks[p.i]; p.i++; return t }
func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *parser) atPunct(s string) bool {
	return p.cur().kind == tokPunct && p.cur().text == s
}

// atKeyword matches a case-insensitive identifier.
func (p *parser) atKeyword(kw string) bool {
	return p.cur().kind == tokIdent && strings.EqualFold(p.cur().text, kw)
}

func (p *parser) eatKeyword(kw string) bool {
	if p.atKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.eatKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	if !p.atPunct(s) {
		return p.errf("expected %q", s)
	}
	p.next()
	return nil
}

func (p *parser) ident() (string, error) {
	if !p.at(tokIdent) {
		return "", p.errf("expected identifier")
	}
	return p.next().text, nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (at offset %d, near %q)",
		fmt.Sprintf(format, args...), p.cur().pos, p.cur().text)
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.atKeyword("CREATE"):
		return p.create()
	case p.atKeyword("DROP"):
		p.next()
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropView{Name: name}, nil
	case p.atKeyword("APPEND"):
		return p.appendStmt()
	case p.atKeyword("UPSERT"):
		return p.upsert()
	case p.atKeyword("DELETE"):
		return p.deleteStmt()
	case p.atKeyword("SELECT"):
		return p.query()
	case p.atKeyword("EXPLAIN"):
		p.next()
		if p.atKeyword("SELECT") {
			q, err := p.query()
			if err != nil {
				return nil, err
			}
			return &Explain{Query: q.(*Query)}, nil
		}
		if err := p.expectKeyword("VIEW"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Explain{View: name}, nil
	case p.atKeyword("WATCH"):
		return p.watch()
	case p.atKeyword("SHOW"):
		p.next()
		what, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch w := strings.ToUpper(what); w {
		case "VIEWS", "CHRONICLES", "RELATIONS", "GROUPS", "STATS":
			return &Show{What: w}, nil
		default:
			return nil, p.errf("cannot SHOW %s", what)
		}
	default:
		return nil, p.errf("expected a statement")
	}
}

// watch parses "WATCH view [FROM LSN n] [LIMIT k]".
func (p *parser) watch() (Statement, error) {
	p.next() // WATCH
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	w := &Watch{View: name}
	if p.eatKeyword("FROM") {
		if err := p.expectKeyword("LSN"); err != nil {
			return nil, err
		}
		if !p.at(tokNumber) {
			return nil, p.errf("expected an LSN after FROM LSN")
		}
		n, err := strconv.ParseUint(p.next().text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LSN: %v", err)
		}
		w.FromLSN, w.HasFrom = n, true
	}
	if p.eatKeyword("LIMIT") {
		if !p.at(tokNumber) {
			return nil, p.errf("expected a count after LIMIT")
		}
		n, err := strconv.ParseInt(p.next().text, 10, 64)
		if err != nil || n <= 0 {
			return nil, p.errf("LIMIT must be a positive integer")
		}
		w.Limit = int(n)
	}
	return w, nil
}

func (p *parser) create() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.eatKeyword("GROUP"):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &CreateGroup{Name: name}, nil
	case p.atKeyword("CHRONICLE"):
		return p.createChronicle()
	case p.atKeyword("RELATION"):
		return p.createRelation()
	case p.atKeyword("VIEW") || p.atKeyword("PERIODIC"):
		return p.createView()
	default:
		return nil, p.errf("expected GROUP, CHRONICLE, RELATION, VIEW, or PERIODIC VIEW")
	}
}

func (p *parser) columnDefs() ([]ColumnDef, []string, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, nil, err
	}
	var cols []ColumnDef
	var keys []string
	for {
		if p.eatKeyword("KEY") {
			if err := p.expectPunct("("); err != nil {
				return nil, nil, err
			}
			for {
				k, err := p.ident()
				if err != nil {
					return nil, nil, err
				}
				keys = append(keys, k)
				if !p.atPunct(",") {
					break
				}
				p.next()
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, nil, err
			}
		} else {
			name, err := p.ident()
			if err != nil {
				return nil, nil, err
			}
			typ, err := p.ident()
			if err != nil {
				return nil, nil, err
			}
			kind, ok := value.KindOf(typ)
			if !ok {
				return nil, nil, p.errf("unknown type %s", typ)
			}
			cols = append(cols, ColumnDef{Name: name, Kind: kind})
		}
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, nil, err
	}
	return cols, keys, nil
}

func (p *parser) createChronicle() (Statement, error) {
	p.next() // CHRONICLE
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cols, keys, err := p.columnDefs()
	if err != nil {
		return nil, err
	}
	if len(keys) != 0 {
		return nil, p.errf("chronicles have no keys (they are sequences)")
	}
	s := &CreateChronicle{Name: name, Cols: cols}
	for {
		switch {
		case p.eatKeyword("IN"):
			if err := p.expectKeyword("GROUP"); err != nil {
				return nil, err
			}
			g, err := p.ident()
			if err != nil {
				return nil, err
			}
			s.Group = g
		case p.eatKeyword("RETAIN"):
			switch {
			case p.eatKeyword("ALL"):
				n := int64(-1)
				s.Retain = &n
			case p.eatKeyword("NONE"):
				n := int64(0)
				s.Retain = &n
			case p.at(tokNumber):
				n, err := strconv.ParseInt(p.next().text, 10, 64)
				if err != nil || n < 0 {
					return nil, p.errf("RETAIN needs ALL, NONE, or a non-negative count")
				}
				s.Retain = &n
			default:
				return nil, p.errf("RETAIN needs ALL, NONE, or a count")
			}
		case p.eatKeyword("WINDOW"):
			n, err := p.int64Tok("WINDOW")
			if err != nil {
				return nil, err
			}
			if n <= 0 {
				return nil, p.errf("WINDOW needs a positive chronon span")
			}
			s.Window = &n
		default:
			return s, nil
		}
	}
}

func (p *parser) createRelation() (Statement, error) {
	p.next() // RELATION
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	cols, keys, err := p.columnDefs()
	if err != nil {
		return nil, err
	}
	if len(keys) == 0 {
		return nil, p.errf("relation %s needs a KEY(...) clause", name)
	}
	return &CreateRelation{Name: name, Cols: cols, Keys: keys}, nil
}

func (p *parser) createView() (Statement, error) {
	periodic := p.eatKeyword("PERIODIC")
	if err := p.expectKeyword("VIEW"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	v := &CreateView{Name: name}
	v.Distinct = p.eatKeyword("DISTINCT")

	// Select list.
	if p.atPunct("*") {
		p.next()
		v.Star = true
	} else {
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			v.Items = append(v.Items, item)
			if !p.atPunct(",") {
				break
			}
			p.next()
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	v.From, err = p.ident()
	if err != nil {
		return nil, err
	}

	// Joins.
	for {
		cross := false
		if p.atKeyword("CROSS") {
			p.next()
			cross = true
		}
		if !p.eatKeyword("JOIN") {
			if cross {
				return nil, p.errf("expected JOIN after CROSS")
			}
			break
		}
		rel, err := p.ident()
		if err != nil {
			return nil, err
		}
		jc := JoinClause{Relation: rel, Cross: cross}
		if !cross {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			// "ON SN" is the natural equijoin on the sequencing attribute
			// — recognized when SN is not followed by a comparison.
			if p.atKeyword("SN") && p.toks[p.i+1].kind != tokOp && !punctIs(p.toks[p.i+1], ".") {
				p.next()
				jc.OnSN = true
			} else {
				for {
					c, err := p.cond()
					if err != nil {
						return nil, err
					}
					jc.On = append(jc.On, c)
					if !p.eatKeyword("AND") {
						break
					}
				}
			}
		}
		v.Joins = append(v.Joins, jc)
	}

	if p.eatKeyword("WHERE") {
		be, err := p.boolExpr()
		if err != nil {
			return nil, err
		}
		v.Where = be
	}

	if p.eatKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			cr, err := p.colRef()
			if err != nil {
				return nil, err
			}
			v.GroupBy = append(v.GroupBy, cr)
			if !p.atPunct(",") {
				break
			}
			p.next()
		}
	}

	if p.atKeyword("EVERY") {
		if !periodic {
			return nil, p.errf("EVERY requires CREATE PERIODIC VIEW")
		}
		p.next()
		pc := &PeriodicClause{}
		pc.Period, err = p.int64Tok("EVERY")
		if err != nil {
			return nil, err
		}
		if p.eatKeyword("WIDTH") {
			pc.Width, err = p.int64Tok("WIDTH")
			if err != nil {
				return nil, err
			}
		}
		if p.eatKeyword("OFFSET") {
			pc.Offset, err = p.int64Tok("OFFSET")
			if err != nil {
				return nil, err
			}
		}
		if p.eatKeyword("EXPIRE") {
			n, err := p.int64Tok("EXPIRE")
			if err != nil {
				return nil, err
			}
			pc.Expire = &n
		}
		v.Periodic = pc
	} else if periodic {
		return nil, p.errf("CREATE PERIODIC VIEW requires an EVERY clause")
	}

	if p.eatKeyword("WITH") {
		if err := p.expectKeyword("STORE"); err != nil {
			return nil, err
		}
		store, err := p.ident()
		if err != nil {
			return nil, err
		}
		// Every view keeps one kind of store; the clause is accepted for the
		// DDL written before it was, and changes nothing.
		if s := strings.ToUpper(store); s != "HASH" && s != "BTREE" {
			return nil, p.errf("store must be HASH or BTREE")
		}
	}
	return v, nil
}

func (p *parser) int64Tok(clause string) (int64, error) {
	if !p.at(tokNumber) {
		return 0, p.errf("%s needs a number", clause)
	}
	n, err := strconv.ParseInt(p.next().text, 10, 64)
	if err != nil {
		return 0, p.errf("%s needs an integer", clause)
	}
	return n, nil
}

func (p *parser) selectItem() (SelectItem, error) {
	name, err := p.ident()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{}
	if p.atPunct("(") { // aggregation
		p.next()
		item.Agg = strings.ToUpper(name)
		if p.atPunct("*") {
			p.next()
			item.Star = true
		} else {
			cr, err := p.colRef()
			if err != nil {
				return SelectItem{}, err
			}
			item.Col = cr
		}
		if err := p.expectPunct(")"); err != nil {
			return SelectItem{}, err
		}
	} else if p.atPunct(".") {
		p.next()
		col, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Col = ColRef{Table: name, Name: col}
	} else {
		item.Col = ColRef{Name: name}
	}
	if p.eatKeyword("AS") {
		as, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.As = as
	}
	return item, nil
}

func (p *parser) colRef() (ColRef, error) {
	a, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if p.atPunct(".") {
		p.next()
		b, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: a, Name: b}, nil
	}
	return ColRef{Name: a}, nil
}

// boolExpr parses AND-of-OR-groups; parentheses group OR-disjunctions.
func (p *parser) boolExpr() (*BoolExpr, error) {
	be := &BoolExpr{}
	for {
		group, err := p.orGroup()
		if err != nil {
			return nil, err
		}
		be.Conj = append(be.Conj, group)
		if !p.eatKeyword("AND") {
			break
		}
	}
	return be, nil
}

func (p *parser) orGroup() ([]Cond, error) {
	if p.atPunct("(") {
		p.next()
		var group []Cond
		for {
			c, err := p.cond()
			if err != nil {
				return nil, err
			}
			group = append(group, c)
			if p.eatKeyword("OR") {
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return group, nil
	}
	var group []Cond
	for {
		c, err := p.cond()
		if err != nil {
			return nil, err
		}
		group = append(group, c)
		if p.eatKeyword("OR") {
			continue
		}
		break
	}
	return group, nil
}

func (p *parser) cond() (Cond, error) {
	left, err := p.colRef()
	if err != nil {
		return Cond{}, err
	}
	if !p.at(tokOp) {
		return Cond{}, p.errf("expected comparison operator")
	}
	op := p.next().text
	c := Cond{Left: left, Op: op}
	switch {
	case p.at(tokIdent) && !p.atKeyword("TRUE") && !p.atKeyword("FALSE") && !p.atKeyword("NULL"):
		rc, err := p.colRef()
		if err != nil {
			return Cond{}, err
		}
		c.RightCol = &rc
	default:
		lit, err := p.literal()
		if err != nil {
			return Cond{}, err
		}
		c.Right = lit
	}
	return c, nil
}

func (p *parser) literal() (value.Value, error) {
	switch {
	case p.at(tokString):
		return value.Str(p.next().text), nil
	case p.at(tokNumber):
		text := p.next().text
		if strings.Contains(text, ".") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return value.Null(), p.errf("bad float %q", text)
			}
			return value.Float(f), nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return value.Null(), p.errf("bad integer %q", text)
		}
		return value.Int(n), nil
	case p.atKeyword("TRUE"):
		p.next()
		return value.Bool(true), nil
	case p.atKeyword("FALSE"):
		p.next()
		return value.Bool(false), nil
	case p.atKeyword("NULL"):
		p.next()
		return value.Null(), nil
	default:
		return value.Null(), p.errf("expected a literal")
	}
}

func (p *parser) valueRows() ([][]value.Value, error) {
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	var rows [][]value.Value
	for {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var row []value.Value
		for {
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if !p.atPunct(",") {
				break
			}
			p.next()
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.atPunct(",") {
			break
		}
		p.next()
	}
	return rows, nil
}

func (p *parser) appendStmt() (Statement, error) {
	p.next() // APPEND
	a := &Append{}
	for {
		if err := p.expectKeyword("INTO"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		rows, err := p.valueRows()
		if err != nil {
			return nil, err
		}
		a.Parts = append(a.Parts, AppendPart{Chronicle: name, Rows: rows})
		if !p.eatKeyword("ALSO") {
			return a, nil
		}
	}
}

func punctIs(t token, s string) bool { return t.kind == tokPunct && t.text == s }

func (p *parser) upsert() (Statement, error) {
	p.next() // UPSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	rows, err := p.valueRows()
	if err != nil {
		return nil, err
	}
	return &Upsert{Relation: name, Rows: rows}, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("KEY"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var key []value.Value
	for {
		lit, err := p.literal()
		if err != nil {
			return nil, err
		}
		key = append(key, lit)
		if !p.atPunct(",") {
			break
		}
		p.next()
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &Delete{Relation: name, Key: key}, nil
}

func (p *parser) query() (Statement, error) {
	p.next() // SELECT
	if err := p.expectPunct("*"); err != nil {
		return nil, p.errf("interactive queries support SELECT * only")
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	q := &Query{From: name}
	if p.eatKeyword("WHERE") {
		be, err := p.boolExpr()
		if err != nil {
			return nil, err
		}
		q.Where = be
	}
	if p.eatKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		cr, err := p.colRef()
		if err != nil {
			return nil, err
		}
		q.OrderBy = &cr
		if p.eatKeyword("DESC") {
			q.OrderDesc = true
		} else {
			p.eatKeyword("ASC")
		}
	}
	if p.eatKeyword("LIMIT") {
		n, err := p.int64Tok("LIMIT")
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, p.errf("LIMIT must be non-negative")
		}
		q.Limit = int(n)
	}
	return q, nil
}
