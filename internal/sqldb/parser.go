package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks   []token
	pos    int
	params int
	// lits holds the statement's LiteralExpr nodes, one per literal
	// token, so a row of literal VALUES costs no allocation per value.
	lits []LiteralExpr
}

// Parse parses a single SQL statement. It returns the statement and the
// number of ? placeholders it contains.
func Parse(src string) (Stmt, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	if n := literalTokens(toks); n > 0 {
		p.lits = make([]LiteralExpr, 0, n)
	}
	st, err := p.statement()
	if err != nil {
		return nil, 0, err
	}
	// Optional trailing semicolon.
	p.acceptOp(";")
	if p.cur().kind != tkEOF {
		return nil, 0, fmt.Errorf("sqldb: trailing input at %d: %q", p.cur().pos, p.cur().text)
	}
	return st, p.params, nil
}

// literalTokens counts the tokens primary turns into a LiteralExpr.
func literalTokens(toks []token) int {
	n := 0
	for _, t := range toks {
		switch t.kind {
		case tkInt, tkFloat, tkString:
			n++
		case tkKeyword:
			if t.text == "NULL" {
				n++
			}
		}
	}
	return n
}

// literal returns a LiteralExpr node for v from the statement's slab.
// Parse sized the slab to the literal tokens, so it never grows; if it
// did, the nodes already handed out would stay in the old array, intact.
func (p *parser) literal(v Value) *LiteralExpr {
	p.lits = append(p.lits, LiteralExpr{Val: v})
	return &p.lits[len(p.lits)-1]
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) acceptKw(kw string) bool {
	if p.cur().kind == tkKeyword && p.cur().text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("sqldb: expected %s at %d, got %q", kw, p.cur().pos, p.cur().text)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if p.cur().kind == tkOp && p.cur().text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return fmt.Errorf("sqldb: expected %q at %d, got %q", op, p.cur().pos, p.cur().text)
	}
	return nil
}

func (p *parser) ident() (string, error) {
	if p.cur().kind != tkIdent {
		return "", fmt.Errorf("sqldb: expected identifier at %d, got %q", p.cur().pos, p.cur().text)
	}
	return p.next().text, nil
}

func (p *parser) statement() (Stmt, error) {
	t := p.cur()
	if t.kind != tkKeyword {
		return nil, fmt.Errorf("sqldb: expected statement at %d, got %q", t.pos, t.text)
	}
	switch t.text {
	case "CREATE":
		return p.createTable()
	case "DROP":
		return p.dropTable()
	case "INSERT":
		return p.insert()
	case "SELECT":
		return p.selectStmt()
	case "UPDATE":
		return p.update()
	case "DELETE":
		return p.deleteStmt()
	case "BEGIN":
		p.pos++
		p.acceptKw("TRANSACTION")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.pos++
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.pos++
		return &RollbackStmt{}, nil
	default:
		return nil, fmt.Errorf("sqldb: unsupported statement %q", t.text)
	}
}

func (p *parser) createTable() (Stmt, error) {
	p.pos++ // CREATE
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{}
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ := TText
		if p.cur().kind == tkKeyword {
			switch p.cur().text {
			case "INTEGER", "INT":
				typ = TInt
				p.pos++
			case "REAL":
				typ = TReal
				p.pos++
			case "TEXT":
				typ = TText
				p.pos++
			case "BLOB":
				typ = TBlob
				p.pos++
			}
		}
		// Tolerate PRIMARY KEY on one column (rowid aliasing is not
		// implemented; the clause is accepted and ignored).
		if p.acceptKw("PRIMARY") {
			if err := p.expectKw("KEY"); err != nil {
				return nil, err
			}
		}
		st.Cols = append(st.Cols, ColDef{Name: col, Type: typ})
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) dropTable() (Stmt, error) {
	p.pos++ // DROP
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	st := &DropTableStmt{}
	if p.acceptKw("IF") {
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		st.IfExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Name = name
	return st, nil
}

func (p *parser) insert() (Stmt, error) {
	p.pos++ // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	st := &InsertStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.acceptOp("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, col)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	// Rows are presized to the column list, or else to the widest row
	// so far.
	width := len(st.Cols)
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		row := make([]Expr, 0, width)
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		width = max(width, len(row))
		if p.acceptOp(",") {
			continue
		}
		break
	}
	return st, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	p.pos++ // SELECT
	st := &SelectStmt{}
	for {
		if p.acceptOp("*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKw("AS") {
				alias, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.As = alias
			}
			st.Items = append(st.Items, item)
		}
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKw("FROM") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Table = name
	}
	if p.acceptKw("WHERE") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if p.acceptKw("LIMIT") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Limit = e
	}
	return st, nil
}

func (p *parser) update() (Stmt, error) {
	p.pos++ // UPDATE
	st := &UpdateStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, Assign{Col: col, Expr: e})
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if p.acceptKw("WHERE") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) deleteStmt() (Stmt, error) {
	p.pos++ // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	st := &DeleteStmt{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = name
	if p.acceptKw("WHERE") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// Expression grammar (precedence climbing):
//
//	or   := and (OR and)*
//	and  := not (AND not)*
//	not  := NOT not | cmp
//	cmp  := add ((=|!=|<|<=|>|>=) add)?
//	add  := mul ((+|-) mul)*
//	mul  := unary ((*|/) unary)*
//	unary:= - unary | primary
//	prim := literal | ? | name | name(args) | ( or )
func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.acceptKw("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", E: e}, nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil || p.cur().kind != tkOp {
		return l, err
	}
	for _, op := range []string{"=", "!=", "<=", ">=", "<", ">"} {
		if p.acceptOp(op) {
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "+", L: l, R: r}
		case p.acceptOp("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "*", L: l, R: r}
		case p.acceptOp("/"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", E: e}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tkInt:
		p.pos++
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqldb: bad integer %q", t.text)
		}
		return p.literal(Int(v)), nil
	case tkFloat:
		p.pos++
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("sqldb: bad number %q", t.text)
		}
		return p.literal(Real(v)), nil
	case tkString:
		p.pos++
		return p.literal(Text(t.text)), nil
	case tkParam:
		p.pos++
		idx := p.params
		p.params++
		return &ParamExpr{Index: idx}, nil
	case tkKeyword:
		if t.text == "NULL" {
			p.pos++
			return p.literal(Null()), nil
		}
		return nil, fmt.Errorf("sqldb: unexpected keyword %q in expression", t.text)
	case tkIdent:
		p.pos++
		if p.acceptOp("(") {
			call := &CallExpr{Name: strings.ToLower(t.text)}
			if p.acceptOp("*") {
				call.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return call, nil
			}
			if p.acceptOp(")") {
				return call, nil
			}
			for {
				e, err := p.expression()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, e)
				if p.acceptOp(",") {
					continue
				}
				break
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &ColumnExpr{Name: t.text}, nil
	case tkOp:
		if t.text == "(" {
			p.pos++
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sqldb: unexpected token %q at %d", t.text, t.pos)
}
