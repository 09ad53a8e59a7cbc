package lint

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/source"
	"deadmembers/internal/token"
	"deadmembers/internal/types"
)

// This file classifies every member access of a function body the way
// internal/deadmember's ProcessStatement does — read, write, address
// taken, lvalue path — but records the classification per AST node
// instead of marking members live, so the flow-sensitive passes can
// attach gen/kill effects to the CFG atoms.
//
// One deliberate divergence from the flow-insensitive analysis: the
// argument of delete/free counts as a read here. The paper's special
// case licenses removing the member altogether (store sites and the
// delete together); a lint finding on a single store whose value a
// later delete consumes would read as a false positive.

// access classifies one member-access node.
type access int8

const (
	accNone access = iota
	accRead
	accWrite
	accAddr
	accPath // locates a subobject: neither read nor written
)

// writeSite is one member store site (for the write-only pass).
type writeSite struct {
	field *types.Field
	pos   source.Pos
}

// classification is the per-function access record.
type classification struct {
	// acc classifies *ast.Member and field-resolving *ast.Ident nodes.
	acc map[ast.Node]access

	// varAcc classifies variable-resolving *ast.Ident nodes, so the
	// dataflow pass can tell a class-value copy (read) from a receiver
	// path step or a store target.
	varAcc map[*ast.Ident]access

	// escaped holds local/param/global variables whose address is taken
	// in this function; stores through them cannot be tracked.
	escaped map[*types.Var]bool

	// mut maps Assign/Unary/Postfix nodes that modify a plain variable
	// (x = e, x += e, ++x, x--) to that variable: mutating a base
	// invalidates every tracked location under it.
	mut map[ast.Node]*types.Var

	// reads is the set of fields this function reads directly — the
	// seed of the transitive callee summaries. Class-value copies
	// (returning, passing, or assigning whole objects) read every
	// contained field.
	reads map[*types.Field]bool

	// addr is the set of fields whose address is taken here, via &expr
	// or &C::m (suppressed program-wide).
	addr map[*types.Field]bool

	// writes lists every member store site in source-walk order,
	// including constructor initializers.
	writes []writeSite

	// universal marks a function containing a pointer-to-member
	// dereference: which member it reads is statically unknown.
	universal bool
}

type classifier struct {
	info *types.Info
	c    *classification
}

// classify walks f's initializer list and body, mirroring the context
// discipline of deadmember's ProcessStatement.
func classify(info *types.Info, f *types.Func) *classification {
	cl := &classifier{info: info, c: &classification{
		acc:     map[ast.Node]access{},
		varAcc:  map[*ast.Ident]access{},
		escaped: map[*types.Var]bool{},
		mut:     map[ast.Node]*types.Var{},
		reads:   map[*types.Field]bool{},
		addr:    map[*types.Field]bool{},
	}}
	for i := range f.Inits {
		init := &f.Inits[i]
		if fld := info.CtorInitFields[init]; fld != nil {
			cl.c.writes = append(cl.c.writes, writeSite{fld, init.Pos()})
		}
		for _, arg := range init.Args {
			cl.expr(arg, accRead)
		}
	}
	if f.Body != nil {
		cl.stmt(f.Body)
	}
	return cl.c
}

func (cl *classifier) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		for _, st := range x.Stmts {
			cl.stmt(st)
		}
	case *ast.DeclStmt:
		if x.Var.Init != nil {
			cl.expr(x.Var.Init, accRead)
		}
		for _, arg := range x.Var.CtorArgs {
			cl.expr(arg, accRead)
		}
	case *ast.ExprStmt:
		cl.expr(x.X, accRead)
	case *ast.IfStmt:
		cl.expr(x.Cond, accRead)
		cl.stmt(x.Then)
		if x.Else != nil {
			cl.stmt(x.Else)
		}
	case *ast.WhileStmt:
		cl.expr(x.Cond, accRead)
		cl.stmt(x.Body)
	case *ast.DoWhileStmt:
		cl.stmt(x.Body)
		cl.expr(x.Cond, accRead)
	case *ast.ForStmt:
		if x.Init != nil {
			cl.stmt(x.Init)
		}
		if x.Cond != nil {
			cl.expr(x.Cond, accRead)
		}
		if x.Post != nil {
			cl.expr(x.Post, accRead)
		}
		cl.stmt(x.Body)
	case *ast.SwitchStmt:
		cl.expr(x.X, accRead)
		for i := range x.Cases {
			for _, v := range x.Cases[i].Values {
				cl.expr(v, accRead)
			}
			for _, st := range x.Cases[i].Body {
				cl.stmt(st)
			}
		}
	case *ast.ReturnStmt:
		if x.X != nil {
			cl.expr(x.X, accRead)
		}
	}
}

// record classifies a field access and folds it into the summaries.
func (cl *classifier) record(n ast.Node, fld *types.Field, c access, at source.Pos) {
	cl.c.acc[n] = c
	switch c {
	case accRead:
		cl.c.reads[fld] = true
	case accWrite:
		cl.c.writes = append(cl.c.writes, writeSite{fld, at})
	case accAddr:
		cl.c.addr[fld] = true
	}
}

// readsClass records that every field contained in cls (including bases
// and class-typed members, through arrays) is read: copying a class
// value reads all of it.
func (cl *classifier) readsClass(t types.Type) {
	cls := types.IsClass(t)
	if cls == nil {
		return
	}
	seen := map[*types.Class]bool{}
	var walk func(*types.Class)
	walk = func(c *types.Class) {
		if c == nil || seen[c] {
			return
		}
		seen[c] = true
		for _, f := range c.Fields {
			cl.c.reads[f] = true
			walk(types.IsClass(elemType(f.Type)))
		}
		for _, b := range c.Bases {
			walk(b.Class)
		}
	}
	walk(cls)
}

func (cl *classifier) expr(e ast.Expr, c access) {
	switch x := e.(type) {
	case nil:
		return
	case *ast.Paren:
		cl.expr(x.X, c)

	case *ast.IntLit, *ast.FloatLit, *ast.CharLit, *ast.BoolLit,
		*ast.StringLit, *ast.NullLit, *ast.ThisExpr:

	case *ast.Ident:
		if fld := cl.info.IdentFields[x]; fld != nil {
			cl.record(x, fld, c, x.Pos())
			return
		}
		if v := cl.info.IdentVars[x]; v != nil {
			cl.c.varAcc[x] = c
			switch c {
			case accAddr:
				cl.c.escaped[v] = true
			case accRead:
				// Copying a class-typed variable reads its fields.
				cl.readsClass(v.Type)
			}
		}

	case *ast.QualifiedIdent:
		// Reached only as the operand of & (pointer-to-member).
		if fld := cl.info.QualFieldRefs[x]; fld != nil {
			cl.c.addr[fld] = true
		}

	case *ast.Member:
		if fld := cl.info.FieldRefs[x]; fld != nil {
			cl.record(x, fld, c, x.Pos())
			if c == accRead {
				// Copying a class-valued member reads its fields.
				cl.readsClass(cl.info.TypeOf(x))
			}
		}
		// Receiver: through a pointer the prefix is read; through dot
		// it only locates a subobject — unless the whole access is a
		// read, which chains reads down the path (paper Figure 1).
		if x.Arrow || c == accRead {
			cl.expr(x.X, accRead)
		} else {
			cl.expr(x.X, accPath)
		}

	case *ast.Unary:
		switch x.Op {
		case token.Amp:
			if qi, ok := ast.Unparen(x.X).(*ast.QualifiedIdent); ok {
				if fld := cl.info.QualFieldRefs[qi]; fld != nil {
					cl.c.addr[fld] = true
				}
				return
			}
			cl.expr(x.X, accAddr)
		case token.Star:
			if c == accRead {
				// Reading *p of class type copies the pointee.
				cl.readsClass(cl.info.TypeOf(x))
			}
			cl.expr(x.X, accRead)
		case token.Inc, token.Dec:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				if v := cl.info.IdentVars[id]; v != nil {
					cl.c.mut[x] = v
				}
			}
			cl.expr(x.X, accRead)
		default:
			cl.expr(x.X, accRead)
		}

	case *ast.Postfix:
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if v := cl.info.IdentVars[id]; v != nil {
				cl.c.mut[x] = v
			}
		}
		cl.expr(x.X, accRead)

	case *ast.Binary:
		cl.expr(x.X, accRead)
		cl.expr(x.Y, accRead)

	case *ast.Assign:
		if id, ok := ast.Unparen(x.LHS).(*ast.Ident); ok {
			if v := cl.info.IdentVars[id]; v != nil {
				cl.c.mut[x] = v
			}
		}
		if x.Op == token.Assign {
			cl.expr(x.LHS, accWrite)
		} else {
			// Compound assignment reads the old value.
			cl.expr(x.LHS, accRead)
		}
		cl.expr(x.RHS, accRead)

	case *ast.Cond:
		cl.expr(x.C, accRead)
		cl.expr(x.Then, c)
		cl.expr(x.Else, c)

	case *ast.MemberPtrDeref:
		cl.c.universal = true
		if x.Arrow {
			cl.expr(x.X, accRead)
		} else {
			cl.expr(x.X, accPath)
		}
		cl.expr(x.Ptr, accRead)

	case *ast.Index:
		switch c {
		case accRead, accAddr:
			if c == accRead {
				cl.readsClass(cl.info.TypeOf(x))
			}
			cl.expr(x.X, accRead)
		default:
			cl.expr(x.X, accPath)
		}
		cl.expr(x.I, accRead)

	case *ast.Call:
		if m, ok := ast.Unparen(x.Fun).(*ast.Member); ok {
			if m.Arrow {
				cl.expr(m.X, accRead)
			} else {
				cl.expr(m.X, accPath)
			}
		}
		for _, arg := range x.Args {
			cl.expr(arg, accRead)
		}

	case *ast.Cast:
		cl.expr(x.X, accRead)

	case *ast.New:
		for _, arg := range x.Args {
			cl.expr(arg, accRead)
		}
		if x.Len != nil {
			cl.expr(x.Len, accRead)
		}

	case *ast.Delete:
		// Deliberately a read (see the file comment).
		cl.expr(x.X, accRead)

	case *ast.Sizeof:
		// The operand is not evaluated.
	}
}
