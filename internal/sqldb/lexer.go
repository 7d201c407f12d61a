package sqldb

import (
	"fmt"
	"strings"
)

// tokKind classifies lexer tokens.
type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkKeyword
	tkInt
	tkFloat
	tkString
	tkParam // ? placeholder
	tkOp    // punctuation and operators
)

type token struct {
	kind tokKind
	text string // keywords upper-cased; strings unquoted
	pos  int
}

// keywords maps each keyword to itself. The lexer looks a word up by its
// upper-cased bytes and takes the token text from the map, so a keyword
// token allocates nothing.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, kw := range strings.Fields(`CREATE TABLE DROP IF NOT EXISTS INSERT INTO
		VALUES SELECT FROM WHERE ORDER BY ASC DESC LIMIT UPDATE SET DELETE BEGIN
		COMMIT ROLLBACK AND OR NULL INTEGER INT REAL TEXT BLOB PRIMARY KEY AS
		TRANSACTION`) {
		if len(kw) > maxKeywordLen {
			panic("sqldb: keyword " + kw + " longer than maxKeywordLen")
		}
		m[kw] = kw
	}
	return m
}()

// maxKeywordLen is the longest keyword's length (TRANSACTION): a longer
// word is an identifier.
const maxKeywordLen = 11

// lex tokenizes one SQL statement. Token texts are sub-strings of src or
// constants, except a string literal with an escaped quote.
func lex(src string) ([]token, error) {
	toks := make([]token, 0, len(src)/2+2)
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
			toks = append(toks, wordToken(src[start:i], start))
		case ch == '\'':
			start := i + 1
			i = start
			for i < len(src) && src[i] != '\'' {
				i++
			}
			if i+1 < len(src) && src[i+1] == '\'' {
				// A '' escape: build the unescaped text.
				var sb strings.Builder
				sb.WriteString(src[start:i])
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
				continue
			}
			if i == len(src) {
				return nil, fmt.Errorf("sqldb: unterminated string at %d", i)
			}
			i++
			toks = append(toks, token{kind: tkString, text: src[start : i-1], pos: i})
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
				toks = append(toks, token{kind: tkOp, text: src[i : i+1], pos: i})
				i++
			}
		case strings.IndexByte("(),;*=+-/", ch) >= 0:
			toks = append(toks, token{kind: tkOp, text: src[i : i+1], pos: i})
			i++
		default:
			return nil, fmt.Errorf("sqldb: unexpected character %q at %d", ch, i)
		}
	}
	toks = append(toks, token{kind: tkEOF, pos: len(src)})
	return toks, nil
}

// wordToken classifies an identifier-shaped word starting at pos: a
// keyword, matched case-insensitively and given its canonical upper-case
// text, or an identifier keeping the word as written.
func wordToken(word string, pos int) token {
	if len(word) <= maxKeywordLen {
		var up [maxKeywordLen]byte
		for i := 0; i < len(word); i++ {
			c := word[i]
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			up[i] = c
		}
		if kw, ok := keywords[string(up[:len(word)])]; ok {
			return token{kind: tkKeyword, text: kw, pos: pos}
		}
	}
	return token{kind: tkIdent, text: word, pos: pos}
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c|0x20 >= 'a' && c|0x20 <= 'z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
