package sqldb

import (
	"fmt"
	"strings"
	"testing"
)

// lexReference is the lexer as it was before it stopped allocating per
// token, kept verbatim but for its keyword test (the keyword table now maps
// each keyword to itself).
func lexReference(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		ch := src[i]
		switch {
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			i++
		case ch == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isDigit(ch) || (ch == '.' && i+1 < len(src) && isDigit(src[i+1])):
			start := i
			isFloat := false
			for i < len(src) && (isDigit(src[i]) || src[i] == '.' || src[i] == 'e' || src[i] == 'E' ||
				((src[i] == '+' || src[i] == '-') && i > start && (src[i-1] == 'e' || src[i-1] == 'E'))) {
				if src[i] == '.' || src[i] == 'e' || src[i] == 'E' {
					isFloat = true
				}
				i++
			}
			kind := tkInt
			if isFloat {
				kind = tkFloat
			}
			toks = append(toks, token{kind: kind, text: src[start:i], pos: start})
		case isIdentStart(ch):
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			up := strings.ToUpper(word)
			if keywords[up] != "" {
				toks = append(toks, token{kind: tkKeyword, text: up, pos: start})
			} else {
				toks = append(toks, token{kind: tkIdent, text: word, pos: start})
			}
		case ch == '\'':
			i++
			var sb strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sqldb: unterminated string at %d", i)
			}
			toks = append(toks, token{kind: tkString, text: sb.String(), pos: i})
		case ch == '?':
			toks = append(toks, token{kind: tkParam, text: "?", pos: i})
			i++
		case ch == '<' || ch == '>' || ch == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{kind: tkOp, text: src[i : i+2], pos: i})
				i += 2
			} else if ch == '<' && i+1 < len(src) && src[i+1] == '>' {
				toks = append(toks, token{kind: tkOp, text: "!=", pos: i})
				i += 2
			} else if ch == '!' {
				return nil, fmt.Errorf("sqldb: unexpected '!' at %d", i)
			} else {
				toks = append(toks, token{kind: tkOp, text: string(ch), pos: i})
				i++
			}
		case strings.ContainsRune("(),;*=+-/", rune(ch)):
			toks = append(toks, token{kind: tkOp, text: string(ch), pos: i})
			i++
		default:
			return nil, fmt.Errorf("sqldb: unexpected character %q at %d", ch, i)
		}
	}
	toks = append(toks, token{kind: tkEOF, pos: len(src)})
	return toks, nil
}

// FuzzLex checks the lexer against lexReference: on every input both
// succeed or both fail, and on success they return the same tokens. The
// seed corpus (testdata/fuzz) holds a preload INSERT, escaped and
// unterminated quotes, mixed-case keywords, every comparison operator
// and a lone '!', comments, and a word longer than any keyword.
func FuzzLex(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErr := lex(src)
		want, wantErr := lexReference(src)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("lex(%q) error %v, reference %v", src, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("lex(%q): %d tokens, reference %d", src, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("lex(%q) token %d = %+v, reference %+v", src, i, got[i], want[i])
			}
		}
	})
}

// TestLexAllocatesOnlyTheTokenSlice: keyword, identifier, number,
// operator and unescaped string tokens take their text from the source
// or from constants, so lexing allocates the token slice and nothing
// else.
func TestLexAllocatesOnlyTheTokenSlice(t *testing.T) {
	src := "select voter, count(*) FROM votes WHERE rowid <> ? AND vote = 'yes' AND ts <= 1.5e3 -- done"
	if n := testing.AllocsPerRun(100, func() { _, _ = lex(src) }); n != 1 {
		t.Fatalf("lex allocates %v times per statement, want 1", n)
	}
}
