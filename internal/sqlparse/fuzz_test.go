package sqlparse

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"chronicledb/internal/value"
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
			if !sameAST(reflect.ValueOf(again[0]), reflect.ValueOf(s)) {
				t.Fatalf("statement %d %q read back as\n%#v\nwant\n%#v", i, s.Text(), again[0], s)
			}
		}
	})
}

var valueType = reflect.TypeFor[value.Value]()

// sameAST reports whether two parsed statements are the same tree, walking
// them field by field as reflect.DeepEqual does, except that a value.Value
// is compared by its kind and exact payload (an integer's word, a float's
// bits, a string's bytes) rather than by the address its string lives at.
func sameAST(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	if a.Type() == valueType {
		return sameValue(a.Interface().(value.Value), b.Interface().(value.Value))
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameAST(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameAST(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameAST(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	panic(fmt.Sprintf("sameAST: no rule for a %s", a.Type()))
}

// sameValue reports whether two values have one kind and the same payload.
func sameValue(x, y value.Value) bool {
	if x.Kind() != y.Kind() {
		return false
	}
	switch x.Kind() {
	case value.KindFloat:
		return math.Float64bits(x.AsFloat()) == math.Float64bits(y.AsFloat())
	case value.KindString:
		return x.AsString() == y.AsString()
	}
	return x.AsInt() == y.AsInt() // an int's, bool's or chronon's word; 0 for NULL
}
