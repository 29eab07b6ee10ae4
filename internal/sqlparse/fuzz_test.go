package sqlparse

import (
	"reflect"
	"testing"
)

// FuzzParse: the parser must never panic on arbitrary input, and anything
// it accepts must be an understood statement type. It also holds the
// catalog's property: a statement's text, written with its ';' as the
// catalog writes it, parses back to the same statement, and Split cuts the
// script at the same places.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"CREATE CHRONICLE calls (acct STRING, minutes INT) IN GROUP g RETAIN 10",
		"CREATE RELATION r (k STRING, v INT, KEY(k))",
		"CREATE VIEW v AS SELECT a, SUM(b) AS s FROM c JOIN r ON c.a = r.k WHERE b > 0 AND (a = 'x' OR a = 'y') GROUP BY a WITH STORE BTREE",
		"CREATE PERIODIC VIEW p AS SELECT a, COUNT(*) FROM c GROUP BY a EVERY 100 WIDTH 300 OFFSET 1 EXPIRE 5",
		"APPEND INTO c VALUES ('a', 1, 2.5, TRUE, NULL) ALSO INTO d VALUES (9)",
		"UPSERT INTO r VALUES ('k', 1)",
		"UPSERT INTO r VALUES ('o''k', 1), ('''', 2), ('', 3), ('a''''b', 4), ('end''', 5)",
		"DELETE FROM r KEY ('k')",
		"SELECT * FROM v WHERE a >= 'm' LIMIT 3",
		"DROP VIEW v; SHOW VIEWS; EXPLAIN VIEW v",
		"EXPLAIN SELECT * FROM v WHERE a = 1 AND (b < 2 OR c >= 'x') ORDER BY a DESC LIMIT 5",
		"CREATE VIEW v AS SELECT DISTINCT a FROM c JOIN d ON SN",
		"-- comment\nSELECT * FROM v",
		"'unterminated",
		"SELECT * FROM",
		"CREATE ((((",
		"CREATE VIEW big AS SELECT acct, COUNT(*) AS n FROM calls WHERE cost > 1000000.0 GROUP BY acct",
		"CREATE VIEW tiny AS SELECT acct, COUNT(*) AS n FROM calls WHERE cost > 0.0000001 GROUP BY acct",
		"CREATE VIEW huge AS SELECT acct, COUNT(*) AS n FROM calls WHERE cost < 100000000000000000000.0 GROUP BY acct",
		"CREATE VIEW q AS SELECT a FROM c WHERE a = 'a;b' OR a = 'o''k'",
		"-- before; don't\nCREATE VIEW v AS SELECT a, -- inside; it's\n COUNT(*) FROM c GROUP BY a -- after; done\n;\n-- end",
		"SELECT * FROM v; -- don't; SELECT * FROM w",
		"WATCH v FROM LSN 7 LIMIT 2; SELECT * FROM v WHERE a <> 1",
		"SELECT * FROM mw FOR INTERVAL 20 WHERE a > 'k' ORDER BY a DESC LIMIT 0; EXPLAIN SELECT * FROM mw FOR INTERVAL -10",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := Parse(src)
		if err != nil {
			return
		}
		pieces, rest, err := Split(src + "\n;")
		if err != nil || rest != "" || len(pieces) != len(stmts) {
			t.Fatalf("Split(%q) = %d statements, rest %q, %v; Parse gave %d", src, len(pieces), rest, err, len(stmts))
		}
		for i, s := range stmts {
			switch s.(type) {
			case *CreateGroup, *CreateChronicle, *CreateRelation, *CreateView,
				*DropView, *Append, *Upsert, *Delete, *Query, *Explain, *Show, *Watch:
			default:
				t.Fatalf("unknown statement type %T", s)
			}
			if pieces[i].Text != s.Text() {
				t.Fatalf("statement %d: Split's text %q, Parse's %q", i, pieces[i].Text, s.Text())
			}
			again, err := Parse(s.Text() + ";\n")
			if err != nil || len(again) != 1 {
				t.Fatalf("statement %d %q read back as %d statements: %v", i, s.Text(), len(again), err)
			}
			if !reflect.DeepEqual(again[0], s) {
				t.Fatalf("statement %d %q read back as\n%#v\nwant\n%#v", i, s.Text(), again[0], s)
			}
		}
	})
}
