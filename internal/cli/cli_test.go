package cli

import (
	"strings"
	"testing"

	"chronicledb/internal/sqlparse"
)

func TestRenderTable(t *testing.T) {
	var b strings.Builder
	RenderTable(&b, []string{"acct", "total"}, [][]string{
		{"alice", "20"},
		{"b", "3"},
	})
	got := b.String()
	want := "acct   total\n-----  -----\nalice  20\nb      3\n(2 row(s))\n"
	if got != want {
		t.Errorf("RenderTable:\n%q\nwant\n%q", got, want)
	}
}

func TestRenderTableWideCell(t *testing.T) {
	var b strings.Builder
	RenderTable(&b, []string{"c"}, [][]string{{"wider-than-header"}})
	if !strings.Contains(b.String(), "wider-than-header") {
		t.Errorf("output = %q", b.String())
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines[1]) != len("wider-than-header") {
		t.Errorf("separator not widened: %q", lines[1])
	}
}

func TestRenderTableNoColumns(t *testing.T) {
	var b strings.Builder
	RenderTable(&b, nil, nil)
	if b.Len() != 0 {
		t.Errorf("empty table rendered %q", b.String())
	}
}

func TestSplitterBasics(t *testing.T) {
	var s Splitter
	if got := s.Feed("SELECT * FROM v"); got != nil {
		t.Errorf("incomplete statement emitted: %v", got)
	}
	if !s.Pending() {
		t.Error("Pending should be true")
	}
	got := s.Feed("WHERE a = 1;")
	if len(got) != 1 || !strings.Contains(got[0], "WHERE a = 1;") {
		t.Errorf("Feed = %v", got)
	}
	if s.Pending() {
		t.Error("Pending should be false after completion")
	}
}

func TestSplitterMultipleStatementsOneLine(t *testing.T) {
	var s Splitter
	got := s.Feed("A; B; C")
	if len(got) != 2 || got[0] != "A;" || got[1] != "B;" {
		t.Errorf("Feed = %v", got)
	}
	if !s.Pending() {
		t.Error("trailing C should be pending")
	}
	got = s.Feed(";")
	if len(got) != 1 || got[0] != "C\n;" {
		t.Errorf("completion = %q", got)
	}
}

func TestSplitterSemicolonInString(t *testing.T) {
	var s Splitter
	got := s.Feed("APPEND INTO c VALUES ('a;b');")
	if len(got) != 1 {
		t.Fatalf("Feed = %v", got)
	}
	if !strings.Contains(got[0], "'a;b'") {
		t.Errorf("string mangled: %q", got[0])
	}
	// Escaped quote inside a string does not close it.
	s.Reset()
	got = s.Feed("APPEND INTO c VALUES ('it''s; fine');")
	if len(got) != 1 || !strings.Contains(got[0], "it''s; fine") {
		t.Errorf("escaped quote: %v", got)
	}
}

func TestSplitterReset(t *testing.T) {
	var s Splitter
	s.Feed("partial 'unclosed")
	s.Reset()
	if s.Pending() {
		t.Error("Reset left pending input")
	}
	got := s.Feed("A;")
	if len(got) != 1 || got[0] != "A;" {
		t.Errorf("after reset = %v", got)
	}
}

func TestSplitterBlankAndEmptyStatements(t *testing.T) {
	var s Splitter
	if got := s.Feed(";;  ;"); got != nil {
		t.Errorf("empty statements emitted: %v", got)
	}
}

// TestSplitterComments: a '--' comment runs to the end of its line, so an
// apostrophe or a ';' in it neither opens a string nor ends a statement.
func TestSplitterComments(t *testing.T) {
	var s Splitter
	if got := s.Feed("SELECT * FROM v; -- don't"); len(got) != 1 || got[0] != "SELECT * FROM v;" {
		t.Errorf("Feed = %q", got)
	}
	if s.Pending() {
		t.Error("a trailing comment left the splitter pending")
	}
	if got := s.Feed("SELECT * FROM w;"); len(got) != 1 || got[0] != "SELECT * FROM w;" {
		t.Errorf("the statement after the comment = %q", got)
	}
	if got := s.Feed("SELECT * -- all; every column"); got != nil {
		t.Errorf("a ';' in a comment split: %q", got)
	}
	if got := s.Feed("FROM v;"); len(got) != 1 || got[0] != "SELECT * -- all; every column\nFROM v;" {
		t.Errorf("Feed = %q", got)
	}
}

func TestSplitterMultiLineStatement(t *testing.T) {
	var s Splitter
	for _, line := range []string{"CREATE VIEW v AS", "  SELECT acct, SUM(n) AS total", "  FROM c WHERE acct != 'x;", "y'", "  GROUP BY acct"} {
		if got := s.Feed(line); got != nil {
			t.Fatalf("Feed(%q) = %q before the ';'", line, got)
		}
		if !s.Pending() {
			t.Fatalf("nothing pending after %q", line)
		}
	}
	got := s.Feed("; SELECT * FROM v;")
	want := []string{"CREATE VIEW v AS\n  SELECT acct, SUM(n) AS total\n  FROM c WHERE acct != 'x;\ny'\n  GROUP BY acct\n;", "SELECT * FROM v;"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Feed = %q, want %q", got, want)
	}
	if s.Pending() {
		t.Error("Pending after the last ';'")
	}
}

// TestSplitterLexError: input the lexer rejects comes back as one statement
// at once, so the shell runs it and reports the error; nothing stays pending.
func TestSplitterLexError(t *testing.T) {
	var s Splitter
	got := s.Feed("SELECT * FROM v WHERE a ! 1")
	if len(got) != 1 || got[0] != "SELECT * FROM v WHERE a ! 1" {
		t.Fatalf("Feed = %q", got)
	}
	if _, err := sqlparse.Parse(got[0]); err == nil || !strings.Contains(err.Error(), "'!'") {
		t.Errorf("running it reports %v", err)
	}
	if s.Pending() {
		t.Error("a statement the lexer rejects was left pending")
	}
	if got := s.Feed("SELECT * FROM v;"); len(got) != 1 || got[0] != "SELECT * FROM v;" {
		t.Errorf("the next statement = %q", got)
	}
}
