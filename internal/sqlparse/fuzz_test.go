package sqlparse

import "testing"

// FuzzParse: the parser must never panic on arbitrary input, and anything
// it accepts must be an understood statement type.
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := Parse(src)
		if err != nil {
			return
		}
		for _, s := range stmts {
			switch s.(type) {
			case *CreateGroup, *CreateChronicle, *CreateRelation, *CreateView,
				*DropView, *Append, *Upsert, *Delete, *Query, *Explain, *Show:
			default:
				t.Fatalf("unknown statement type %T", s)
			}
		}
	})
}
