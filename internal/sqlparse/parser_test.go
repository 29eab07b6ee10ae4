package sqlparse

import (
	"fmt"
	"strings"
	"testing"

	"chronicledb/internal/value"
)

func parseOne(t *testing.T, src string) Statement {
	t.Helper()
	s, err := ParseOne(src)
	if err != nil {
		t.Fatalf("ParseOne(%q): %v", src, err)
	}
	return s
}

func expectParseError(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := Parse(src)
	if err == nil {
		t.Fatalf("Parse(%q) succeeded, want error containing %q", src, fragment)
	}
	if fragment != "" && !strings.Contains(err.Error(), fragment) {
		t.Errorf("Parse(%q) error %q does not mention %q", src, err, fragment)
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("SELECT * FROM t WHERE a >= 1.5 AND b != 'o''k' -- comment\n;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF token")
	}
	// Find the escaped string.
	found := false
	for _, tok := range toks {
		if tok.kind == tokString && tok.text == "o'k" {
			found = true
		}
	}
	if !found {
		t.Error("escaped string not lexed")
	}
}

// TestLexerQuotedLiterals: a literal is the text between its quotes with
// each doubled quote made one, whether or not it has any.
func TestLexerQuotedLiterals(t *testing.T) {
	for src, want := range map[string]string{
		`''`:           ``,
		`'plain'`:      `plain`,
		`'o''k'`:       `o'k`,
		`''''`:         `'`,
		`''''''`:       `''`,
		`'a''''b'`:     `a''b`,
		`'''lead'`:     `'lead`,
		`'trail'''`:    `trail'`,
		`'x'' -- y'`:   `x' -- y`,
		"'two\nlines'": "two\nlines",
	} {
		toks, err := lex(src)
		if err != nil {
			t.Errorf("lex(%q): %v", src, err)
			continue
		}
		if len(toks) != 2 || toks[0].kind != tokString || toks[0].text != want {
			t.Errorf("lex(%q) = %+v, want one literal %q", src, toks, want)
		}
	}
	for _, src := range []string{`'`, `'''`, `'a''`, `'it''s`} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q) accepted an unterminated literal", src)
		}
	}
}

// TestLexAllocGuard pins what lexing a bulk load costs: a 1 000-tuple
// UPSERT, the shape a customer table is loaded in, lexes in a handful of
// allocations — the token slice, not one per literal or per doubling.
func TestLexAllocGuard(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("UPSERT INTO customers VALUES ")
	for a := range 1000 {
		if a > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "('a%05d', 'S%02d', 'P%d')", a, a%50, a/50%4)
	}
	src := sb.String()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := lex(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("lexing a %d-byte, 1 000-tuple UPSERT: %.0f allocs", len(src), allocs)
	if allocs > 4 {
		t.Errorf("lexing a 1 000-tuple UPSERT: %.0f allocs, budget 4", allocs)
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lex("a ! b"); err == nil {
		t.Error("stray ! accepted")
	}
	if _, err := lex("a @ b"); err == nil {
		t.Error("stray @ accepted")
	}
	// <> is an alias for !=
	toks, err := lex("a <> b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].kind != tokOp || toks[1].text != "!=" {
		t.Errorf("<> lexed as %v %q", toks[1].kind, toks[1].text)
	}
}

func TestParseCreateGroup(t *testing.T) {
	s := parseOne(t, "CREATE GROUP telecom")
	g, ok := s.(*CreateGroup)
	if !ok || g.Name != "telecom" {
		t.Errorf("parsed %+v", s)
	}
}

func TestParseCreateChronicle(t *testing.T) {
	s := parseOne(t, `CREATE CHRONICLE calls (acct STRING, minutes INT, cost FLOAT)
		IN GROUP telecom RETAIN 1000`)
	c, ok := s.(*CreateChronicle)
	if !ok {
		t.Fatalf("parsed %T", s)
	}
	if c.Name != "calls" || c.Group != "telecom" {
		t.Errorf("%+v", c)
	}
	if len(c.Cols) != 3 || c.Cols[0].Kind != value.KindString || c.Cols[1].Kind != value.KindInt || c.Cols[2].Kind != value.KindFloat {
		t.Errorf("cols = %+v", c.Cols)
	}
	if c.Retain == nil || *c.Retain != 1000 {
		t.Errorf("retain = %v", c.Retain)
	}

	s = parseOne(t, "CREATE CHRONICLE c (x INT) RETAIN ALL")
	if c := s.(*CreateChronicle); c.Retain == nil || *c.Retain != -1 {
		t.Errorf("RETAIN ALL = %v", c.Retain)
	}
	s = parseOne(t, "CREATE CHRONICLE c (x INT) RETAIN NONE")
	if c := s.(*CreateChronicle); c.Retain == nil || *c.Retain != 0 {
		t.Errorf("RETAIN NONE = %v", c.Retain)
	}
	s = parseOne(t, "CREATE CHRONICLE c (x INT)")
	if c := s.(*CreateChronicle); c.Retain != nil {
		t.Errorf("default retain = %v", c.Retain)
	}

	expectParseError(t, "CREATE CHRONICLE c (x BLOB)", "unknown type")
	expectParseError(t, "CREATE CHRONICLE c (x INT, KEY(x))", "no keys")
	expectParseError(t, "CREATE CHRONICLE c (x INT) RETAIN", "RETAIN")
}

func TestParseCreateRelation(t *testing.T) {
	s := parseOne(t, "CREATE RELATION customers (acct STRING, state STRING, KEY(acct))")
	r, ok := s.(*CreateRelation)
	if !ok {
		t.Fatalf("parsed %T", s)
	}
	if r.Name != "customers" || len(r.Cols) != 2 || len(r.Keys) != 1 || r.Keys[0] != "acct" {
		t.Errorf("%+v", r)
	}
	expectParseError(t, "CREATE RELATION r (x INT)", "KEY")
}

func TestParseCreateView(t *testing.T) {
	s := parseOne(t, `CREATE VIEW balances AS
		SELECT acct, SUM(cost) AS total, COUNT(*) AS n
		FROM calls
		JOIN customers ON calls.acct = customers.acct
		WHERE minutes > 0 AND (state = 'nj' OR state = 'ny')
		GROUP BY acct
		WITH STORE BTREE`)
	v, ok := s.(*CreateView)
	if !ok {
		t.Fatalf("parsed %T", s)
	}
	if v.Name != "balances" || v.From != "calls" {
		t.Errorf("%+v", v)
	}
	if len(v.Items) != 3 || v.Items[1].Agg != "SUM" || v.Items[1].As != "total" || !v.Items[2].Star {
		t.Errorf("items = %+v", v.Items)
	}
	if len(v.Joins) != 1 || v.Joins[0].Relation != "customers" || len(v.Joins[0].On) != 1 {
		t.Errorf("joins = %+v", v.Joins)
	}
	if len(v.Where.Conj) != 2 || len(v.Where.Conj[0]) != 1 || len(v.Where.Conj[1]) != 2 {
		t.Errorf("where = %+v", v.Where)
	}
	if len(v.GroupBy) != 1 || v.GroupBy[0].Name != "acct" {
		t.Errorf("groupby = %+v", v.GroupBy)
	}
}

func TestParseCreateViewDistinct(t *testing.T) {
	s := parseOne(t, "CREATE VIEW accts AS SELECT DISTINCT acct FROM calls")
	v := s.(*CreateView)
	if !v.Distinct || len(v.Items) != 1 || v.Items[0].Col.Name != "acct" {
		t.Errorf("%+v", v)
	}
	s = parseOne(t, "CREATE VIEW everything AS SELECT * FROM calls")
	if v := s.(*CreateView); !v.Star {
		t.Errorf("%+v", v)
	}
}

func TestParseCrossJoin(t *testing.T) {
	s := parseOne(t, "CREATE VIEW x AS SELECT acct, COUNT(*) AS n FROM calls CROSS JOIN rates GROUP BY acct")
	v := s.(*CreateView)
	if len(v.Joins) != 1 || !v.Joins[0].Cross || v.Joins[0].Relation != "rates" {
		t.Errorf("%+v", v.Joins)
	}
	expectParseError(t, "CREATE VIEW x AS SELECT a FROM c CROSS rates", "JOIN")
}

func TestParsePeriodicView(t *testing.T) {
	s := parseOne(t, `CREATE PERIODIC VIEW monthly AS
		SELECT acct, SUM(minutes) AS total FROM calls GROUP BY acct
		EVERY 2592000 WIDTH 7776000 OFFSET 100 EXPIRE 86400`)
	v := s.(*CreateView)
	if v.Periodic == nil {
		t.Fatal("periodic clause missing")
	}
	p := v.Periodic
	if p.Period != 2592000 || p.Width != 7776000 || p.Offset != 100 || p.Expire == nil || *p.Expire != 86400 {
		t.Errorf("%+v", p)
	}
	expectParseError(t, "CREATE PERIODIC VIEW v AS SELECT a, COUNT(*) AS n FROM c GROUP BY a", "EVERY")
	expectParseError(t, "CREATE VIEW v AS SELECT a, COUNT(*) AS n FROM c GROUP BY a EVERY 100", "PERIODIC")
}

func TestParseAppendUpsertDelete(t *testing.T) {
	s := parseOne(t, "APPEND INTO calls VALUES ('a', 10, 1.5), ('b', -3, 0.25)")
	a := s.(*Append)
	if len(a.Parts) != 1 || a.Parts[0].Chronicle != "calls" || len(a.Parts[0].Rows) != 2 {
		t.Fatalf("%+v", a)
	}
	rows := a.Parts[0].Rows
	if rows[0][0].AsString() != "a" || rows[0][1].AsInt() != 10 || rows[0][2].AsFloat() != 1.5 {
		t.Errorf("row 0 = %v", rows[0])
	}
	if rows[1][1].AsInt() != -3 {
		t.Errorf("negative literal = %v", rows[1][1])
	}

	// Simultaneous multi-chronicle append.
	s = parseOne(t, "APPEND INTO calls VALUES ('a', 1, 0.5) ALSO INTO payments VALUES ('a', 9.0)")
	a = s.(*Append)
	if len(a.Parts) != 2 || a.Parts[1].Chronicle != "payments" || len(a.Parts[1].Rows) != 1 {
		t.Fatalf("multi-part = %+v", a)
	}

	s = parseOne(t, "UPSERT INTO customers VALUES ('a', 'nj')")
	u := s.(*Upsert)
	if u.Relation != "customers" || len(u.Rows) != 1 {
		t.Errorf("%+v", u)
	}

	s = parseOne(t, "DELETE FROM customers KEY ('a')")
	d := s.(*Delete)
	if d.Relation != "customers" || len(d.Key) != 1 || d.Key[0].AsString() != "a" {
		t.Errorf("%+v", d)
	}
}

func TestParseLiterals(t *testing.T) {
	s := parseOne(t, "APPEND INTO c VALUES (TRUE, FALSE, NULL, 'text')")
	a := s.(*Append)
	r := a.Parts[0].Rows[0]
	if !r[0].AsBool() || r[1].AsBool() || !r[2].IsNull() || r[3].AsString() != "text" {
		t.Errorf("literals = %v", r)
	}
}

func TestParseQuery(t *testing.T) {
	s := parseOne(t, "SELECT * FROM balances WHERE acct = 'a' LIMIT 10")
	q := s.(*Query)
	if q.From != "balances" || q.Limit != 10 || q.Where == nil {
		t.Errorf("%+v", q)
	}
	s = parseOne(t, "SELECT * FROM balances")
	if q := s.(*Query); q.Where != nil || q.Limit != -1 || q.Interval != nil {
		t.Errorf("no LIMIT: %+v", q)
	}
	// LIMIT 0 is a limit of no rows, not the absence of one.
	if q := parseOne(t, "SELECT * FROM balances ORDER BY acct DESC LIMIT 0").(*Query); q.Limit != 0 {
		t.Errorf("LIMIT 0: %+v", q)
	}
	q = parseOne(t, "SELECT * FROM mw FOR INTERVAL -20 WHERE acct = 'a' LIMIT 2").(*Query)
	if q.From != "mw" || q.Interval == nil || *q.Interval != -20 || q.Where == nil || q.Limit != 2 {
		t.Errorf("FOR INTERVAL: %+v", q)
	}
	expectParseError(t, "SELECT acct FROM balances", "SELECT *")
	expectParseError(t, "SELECT * FROM v LIMIT -1", "")
	expectParseError(t, "SELECT * FROM mw FOR 10", "expected INTERVAL")
	expectParseError(t, "SELECT * FROM mw FOR INTERVAL 'a'", "FOR INTERVAL needs a number")
	expectParseError(t, "SELECT * FROM mw WHERE acct = 'a' FOR INTERVAL 10", "")
}

func TestParseExplainShow(t *testing.T) {
	if e := parseOne(t, "EXPLAIN VIEW balances").(*Explain); e.View != "balances" || e.Query != nil {
		t.Errorf("%+v", e)
	}
	e := parseOne(t, "EXPLAIN SELECT * FROM balances WHERE acct = 'a' ORDER BY acct DESC LIMIT 3").(*Explain)
	if q := e.Query; e.View != "" || q == nil || q.From != "balances" || len(q.Where.Conj) != 1 || !q.OrderDesc || q.Limit != 3 {
		t.Errorf("EXPLAIN SELECT = %+v", e)
	}
	expectParseError(t, "EXPLAIN SELECT acct FROM balances", "SELECT *")
	expectParseError(t, "EXPLAIN balances", "expected VIEW")
	for _, w := range []string{"VIEWS", "CHRONICLES", "RELATIONS", "STATS"} {
		if sh := parseOne(t, "SHOW "+w).(*Show); sh.What != w {
			t.Errorf("SHOW %s = %+v", w, sh)
		}
	}
	expectParseError(t, "SHOW TABLES", "cannot SHOW")
}

func TestParseMultipleStatements(t *testing.T) {
	stmts, err := Parse(`
		CREATE GROUP g;
		CREATE CHRONICLE c (x INT) IN GROUP g;
		APPEND INTO c VALUES (1);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Errorf("parsed %d statements", len(stmts))
	}
	if _, err := ParseOne("CREATE GROUP a; CREATE GROUP b"); err == nil {
		t.Error("ParseOne accepted two statements")
	}
}

func TestParseColumnColumnCondition(t *testing.T) {
	s := parseOne(t, "CREATE VIEW v AS SELECT DISTINCT a FROM c WHERE a = b")
	v := s.(*CreateView)
	cond := v.Where.Conj[0][0]
	if cond.RightCol == nil || cond.RightCol.Name != "b" {
		t.Errorf("cond = %+v", cond)
	}
}

func TestParseErrorsGeneral(t *testing.T) {
	expectParseError(t, "FROB x", "expected a statement")
	expectParseError(t, "CREATE TABLE t (x INT)", "expected GROUP")
	expectParseError(t, "CREATE GROUP g CREATE GROUP h", "';'")
	expectParseError(t, "APPEND INTO c VALUES 1", `"("`)
	expectParseError(t, "CREATE VIEW v AS SELECT SUM( FROM c", "")
}

// TestStatementText: a statement's text runs from its first token to the
// end of its last, a quoted ';' and an inner comment included; a comment
// around it and its ';' are not part of it.
func TestStatementText(t *testing.T) {
	src := "-- lead; don't\nCREATE GROUP g ;\n\tAPPEND INTO c VALUES ('a;b', 'o''k', -- inner; it's\n1.0) -- trail\n;; SELECT * FROM v WHERE a <> 1"
	want := []string{
		"CREATE GROUP g",
		"APPEND INTO c VALUES ('a;b', 'o''k', -- inner; it's\n1.0)",
		"SELECT * FROM v WHERE a <> 1",
	}
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != len(want) {
		t.Fatalf("parsed %d statements", len(stmts))
	}
	for i, s := range stmts {
		if s.Text() != want[i] {
			t.Errorf("statement %d text %q, want %q", i, s.Text(), want[i])
		}
	}
	if s := parseOne(t, "EXPLAIN SELECT * FROM v"); s.Text() != "EXPLAIN SELECT * FROM v" {
		t.Errorf("EXPLAIN text %q", s.Text())
	}
}

// TestSplit: a script is cut at its ';' tokens; what follows the last one
// is the rest, from its first token; a source the end cuts inside a token
// ends inside the rest, and any other lexical error is an error.
func TestSplit(t *testing.T) {
	for _, tc := range []struct {
		src   string
		texts []string
		rest  string
		err   string
	}{
		{src: ""},
		{src: " ;; -- only a comment; don't\n"},
		{src: "A; B; C", texts: []string{"A", "B"}, rest: "C"},
		{src: "A;\nCREATE VIEW v AS SELECT x FROM c WHERE s = 'a;", texts: []string{"A"}, rest: "CREATE VIEW v AS SELECT x FROM c WHERE s = 'a;"},
		{src: "A;\n-- next; up\nB -- counts; per acct", texts: []string{"A"}, rest: "B -- counts; per acct"},
		{src: "A;\n'open", texts: []string{"A"}, rest: "'open"},
		{src: "A; x !", texts: []string{"A"}, rest: "x !"},
		{src: "A; x -", texts: []string{"A"}, rest: "x -"},
		{src: "A; -", texts: []string{"A"}, rest: "-"},
		{src: "x ! y;", err: "'!'"},
		{src: "A; x @", err: "unexpected character"},
		{src: "'a;b' -- c;\n;'o''k';", texts: []string{"'a;b'", "'o''k'"}},
	} {
		pieces, rest, err := Split(tc.src)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("Split(%q) error %v, want %q", tc.src, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Split(%q): %v", tc.src, err)
			continue
		}
		var texts []string
		for _, p := range pieces {
			texts = append(texts, p.Text)
			if p.End < 1 || tc.src[p.End-1] != ';' {
				t.Errorf("Split(%q): piece %q ends at %d, not past a ';'", tc.src, p.Text, p.End)
			}
		}
		if fmt.Sprint(texts) != fmt.Sprint(tc.texts) || rest != tc.rest {
			t.Errorf("Split(%q) = %q, rest %q; want %q, rest %q", tc.src, texts, rest, tc.texts, tc.rest)
		}
	}
}
