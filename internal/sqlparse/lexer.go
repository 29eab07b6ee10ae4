// Package sqlparse implements the declarative view-definition language of
// the chronicle model. The paper's requirement: summary queries "specified
// declaratively (an SQL like language may be used), so that these queries
// can be answered without requiring the entire transactional history to be
// stored". Statements parse to an AST; the planner lowers view definitions
// into summarized chronicle algebra, rejecting anything outside SCA with
// the Theorem 4.3 justification.
package sqlparse

import (
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
	pos  int // byte offset, for error messages
}

// lex tokenizes src. It never fails on identifiers/numbers; unterminated
// strings and stray runes produce errors with positions.
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
					return nil, fmt.Errorf("sql: unterminated string at offset %d", i)
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
			toks = append(toks, token{tokString, text, i})
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
			toks = append(toks, token{tokNumber, src[i:j], i})
			i = j
		case isIdentStart(rune(c)):
			j := i + 1
			for j < len(src) && isIdentPart(rune(src[j])) {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		case c == '!' || c == '<' || c == '>' || c == '=':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokOp, src[i : i+2], i})
				i += 2
			} else if c == '!' {
				return nil, fmt.Errorf("sql: unexpected '!' at offset %d (use != )", i)
			} else if c == '<' && i+1 < len(src) && src[i+1] == '>' {
				toks = append(toks, token{tokOp, "!=", i})
				i += 2
			} else {
				toks = append(toks, token{tokOp, src[i : i+1], i})
				i++
			}
		case c == '(' || c == ')' || c == ',' || c == ';' || c == '.' || c == '*':
			toks = append(toks, token{tokPunct, src[i : i+1], i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
