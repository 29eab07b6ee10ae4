// Package sqlparse implements the declarative view-definition language of
// the chronicle model. The paper's requirement: summary queries "specified
// declaratively (an SQL like language may be used), so that these queries
// can be answered without requiring the entire transactional history to be
// stored". Statements parse to an AST; the planner lowers view definitions
// into summarized chronicle algebra, rejecting anything outside SCA with
// the Theorem 4.3 justification.
package sqlparse

import (
	"errors"
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokString // single-quoted literal
	tokNumber
	tokOp    // = != < <= > >=
	tokPunct // ( ) , ; . *
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset of the token's first byte
	end  int // byte offset just past its last byte
}

// cutError is lex's error for a source that ends inside a token: a string
// literal left open, or a '!' or '-' that is its last byte. The statement
// holding it may still be being written, so Split keeps it as the rest.
type cutError struct {
	pos int // where the cut token starts
	msg string
}

func (e *cutError) Error() string { return e.msg }

// lex tokenizes src. It never fails on identifiers/numbers; unterminated
// strings and stray runes produce errors with positions. With a *cutError
// it also returns the tokens before the cut.
//
// A token's text is a substring of src, except for a literal with an escaped
// quote, which is built; toks is sized once for about three bytes a token,
// the density of a multi-row VALUES list. So lexing costs about one
// allocation however long the statement.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/3+2)
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-': // comment to EOL
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '\'':
			j, escaped := i+1, false
			for {
				if j >= len(src) {
					return toks, &cutError{i, fmt.Sprintf("sql: unterminated string at offset %d", i)}
				}
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' { // escaped quote
						escaped = true
						j += 2
						continue
					}
					break
				}
				j++
			}
			text := src[i+1 : j]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{tokString, text, i, j + 1})
			i = j + 1
		case c >= '0' && c <= '9' || (c == '-' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9'):
			j := i + 1
			seenDot := false
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || (src[j] == '.' && !seenDot)) {
				if src[j] == '.' {
					// Disambiguate "1.5" from "t.col" — a dot followed by a
					// digit continues the number.
					if j+1 >= len(src) || src[j+1] < '0' || src[j+1] > '9' {
						break
					}
					seenDot = true
				}
				j++
			}
			toks = append(toks, token{tokNumber, src[i:j], i, j})
			i = j
		case isIdentStart(rune(c)):
			j := i + 1
			for j < len(src) && isIdentPart(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i, j})
			i = j
		case c == '!' || c == '<' || c == '>' || c == '=':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokOp, src[i : i+2], i, i + 2})
				i += 2
			} else if c == '!' {
				err := fmt.Errorf("sql: unexpected '!' at offset %d (use != )", i)
				if i+1 == len(src) {
					return toks, &cutError{i, err.Error()}
				}
				return nil, err
			} else if c == '<' && i+1 < len(src) && src[i+1] == '>' {
				toks = append(toks, token{tokOp, "!=", i, i + 2})
				i += 2
			} else {
				toks = append(toks, token{tokOp, src[i : i+1], i, i + 1})
				i++
			}
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '.' || c == '*':
			toks = append(toks, token{tokPunct, src[i : i+1], i, i + 1})
			i++
		default:
			err := fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			if c == '-' && i+1 == len(src) {
				return toks, &cutError{i, err.Error()}
			}
			return nil, err
		}
	}
	toks = append(toks, token{tokEOF, "", len(src), len(src)})
	return toks, nil
}

// A Piece is one complete statement of a script: its text, which is the text
// Parse gives the statement, and End, the offset just past the ';' that ends
// it.
type Piece struct {
	Text string
	End  int
}

// Split cuts a script at its ';' tokens into its complete statements and
// rest: the script from the first token after the last ';', a statement
// still being written, or "" when only blanks and comments follow. A source
// that ends inside a token (a string left open, a trailing '!' or '-') ends
// inside rest; any other lexical error is returned. Split and Parse, which
// gives each statement the same text, are the only code that reads where a
// statement ends: the catalog's torn-tail trim and the shell cut with Split.
func Split(src string) (stmts []Piece, rest string, err error) {
	toks, err := lex(src)
	var cut *cutError
	if errors.As(err, &cut) {
		// The cut token belongs to the rest: stand it in as a token to its end.
		toks = append(toks, token{tokString, "", cut.pos, len(src)}, token{tokEOF, "", len(src), len(src)})
	} else if err != nil {
		return nil, "", err
	}
	first := -1 // the first token of the statement being read
	for i, t := range toks {
		switch {
		case t.kind == tokPunct && t.text == ";":
			if first >= 0 {
				stmts = append(stmts, Piece{src[toks[first].pos:toks[i-1].end], t.end})
				first = -1
			}
		case t.kind == tokEOF:
			if first >= 0 {
				rest = src[toks[first].pos:]
			}
		case first < 0:
			first = i
		}
	}
	return stmts, rest, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
