// Package cli holds the testable parts of the interactive shell: text
// table rendering and the line-based statement splitter.
package cli

import (
	"fmt"
	"io"
	"strings"

	"chronicledb/internal/sqlparse"
)

// RenderTable writes an aligned text table followed by a row count.
func RenderTable(w io.Writer, columns []string, rows [][]string) {
	if len(columns) == 0 {
		return
	}
	widths := make([]int, len(columns))
	for i, c := range columns {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", pad, c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	writeRow(columns)
	sep := make([]string, len(columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	fmt.Fprintf(w, "(%d row(s))\n", len(rows))
}

// Splitter accumulates input lines into statements terminated by ';'. Where
// a statement ends is sqlparse.Split's call: a ';' inside a string literal or
// a comment ends nothing.
type Splitter struct {
	pending string // input after the last ';', from its first token on
}

// Feed adds one input line and returns any completed statements, each
// trimmed, with its ';'. Input the lexer rejects is returned whole as one
// statement, so running it reports the error instead of leaving it pending.
func (s *Splitter) Feed(line string) []string {
	src := s.pending + line
	s.pending = ""
	pieces, rest, err := sqlparse.Split(src)
	if err != nil {
		return []string{strings.TrimSpace(src)}
	}
	var out []string
	from := 0
	for _, p := range pieces {
		out = append(out, strings.TrimSpace(src[from:p.End]))
		from = p.End
	}
	if rest != "" {
		s.pending = rest + "\n"
	}
	return out
}

// Pending reports whether a partial statement is buffered.
func (s *Splitter) Pending() bool { return s.pending != "" }

// Reset discards any buffered partial statement.
func (s *Splitter) Reset() { s.pending = "" }
