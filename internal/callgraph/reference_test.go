package callgraph_test

import (
	"deadmembers/internal/ast"
	"deadmembers/internal/callgraph"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/types"
)

// refBuild is call-graph construction as it was before dispatch slots,
// kept as a differential oracle and as the baseline of the scaling test.
// Every virtual call site is recorded and resolved over every subclass of
// its static class, and under RTA every newly instantiated class is
// checked against every recorded site: quadratic in the number of
// classes. It also returns its dispatch work, counted like the
// production builder's: Overrides probes plus caller fan-outs.
func refBuild(prog *types.Program, h *hierarchy.Graph, opts callgraph.Options) (*callgraph.Graph, int) {
	b := &refBuilder{
		prog: prog,
		h:    h,
		info: prog.Info,
		g: &callgraph.Graph{
			Mode:         opts.Mode,
			Reachable:    map[*types.Func]bool{},
			Edges:        map[*types.Func][]*types.Func{},
			Instantiated: map[*types.Class]bool{},
		},
		edgeSet: map[refEdge]bool{},
	}
	if opts.Mode == callgraph.ALL {
		for _, f := range prog.AllFuncs() {
			if f.Body != nil {
				b.g.Reachable[f] = true
			}
		}
		for _, c := range prog.Classes {
			b.g.Instantiated[c] = true
		}
		return b.g, 0
	}
	for _, gv := range prog.Globals {
		b.instantiateVarType(nil, gv.Type, b.info.VarCtors[gv.Decl], gv.Decl)
	}
	if prog.Main != nil {
		b.addReachable(prog.Main)
	}
	for _, r := range opts.ExtraRoots {
		b.addReachable(r)
	}
	b.run()
	return b.g, b.dispatchWork
}

type refEdge struct{ from, to *types.Func }

type refSite struct {
	caller *types.Func
	static *types.Class
	method *types.Func
}

type refDtorSite struct {
	caller *types.Func
	static *types.Class
}

type refBuilder struct {
	prog         *types.Program
	h            *hierarchy.Graph
	info         *types.Info
	g            *callgraph.Graph
	work         []*types.Func
	sites        []refSite
	dtorSites    []refDtorSite
	edgeSet      map[refEdge]bool
	dispatchWork int
}

func (b *refBuilder) addEdge(from, to *types.Func) {
	if to == nil {
		return
	}
	if from != nil {
		e := refEdge{from, to}
		if !b.edgeSet[e] {
			b.edgeSet[e] = true
			b.g.Edges[from] = append(b.g.Edges[from], to)
		}
	}
	b.addReachable(to)
}

func (b *refBuilder) addReachable(f *types.Func) {
	if f == nil || f.Builtin || b.g.Reachable[f] {
		return
	}
	b.g.Reachable[f] = true
	if f.Body != nil || f.IsCtor || f.IsDtor {
		b.work = append(b.work, f)
	}
}

func (b *refBuilder) run() {
	for {
		if len(b.work) == 0 {
			break
		}
		f := b.work[len(b.work)-1]
		b.work = b.work[:len(b.work)-1]
		b.scan(f)
	}
}

// instantiate marks cls as constructed and revisits recorded virtual call
// sites, since a newly instantiated class can add dispatch targets.
func (b *refBuilder) instantiate(caller *types.Func, cls *types.Class) {
	if cls == nil || b.g.Instantiated[cls] {
		return
	}
	b.g.Instantiated[cls] = true
	// Instantiating a class instantiates its base subobjects and
	// class-typed members for dispatch purposes.
	for _, bs := range cls.Bases {
		b.instantiate(caller, bs.Class)
	}
	for _, fld := range cls.Fields {
		b.instantiateFieldType(caller, fld.Type)
	}
	if b.g.Mode == callgraph.RTA {
		// Only the newly instantiated class can contribute new dispatch
		// targets, but it is checked against every recorded site.
		for _, s := range b.sites {
			if cls == s.static || b.h.IsBaseOf(s.static, cls) {
				b.dispatchWork++
				if target := b.h.Overrides(cls, s.method.Name); target != nil {
					b.addEdge(s.caller, target)
				}
			}
		}
		for _, ds := range b.dtorSites {
			if cls == ds.static || b.h.IsBaseOf(ds.static, cls) {
				b.dispatchWork++
				b.destroy(ds.caller, cls)
			}
		}
	}
}

func (b *refBuilder) instantiateFieldType(caller *types.Func, t types.Type) {
	for {
		if a, ok := t.(*types.Array); ok {
			t = a.Elem
			continue
		}
		break
	}
	if c := types.IsClass(t); c != nil {
		b.instantiate(caller, c)
		b.construct(caller, c, nil)
		b.destroy(caller, c)
	}
}

// construct records the constructor-call closure for creating an object of
// class cls with the given (possibly nil) selected constructor.
func (b *refBuilder) construct(caller *types.Func, cls *types.Class, ctor *types.Func) {
	b.instantiate(caller, cls)
	if ctor == nil {
		ctor = cls.CtorByArity(0)
	}
	if ctor != nil {
		b.addEdge(caller, ctor)
		// The ctor body's init-list and implicit sub-object construction
		// edges are added when the ctor itself is scanned.
		return
	}
	// No user constructor: default construction recursively constructs
	// bases and class-typed members.
	for _, bs := range cls.Bases {
		b.construct(caller, bs.Class, nil)
	}
	for _, f := range cls.Fields {
		b.constructFieldDefault(caller, f.Type)
	}
}

func (b *refBuilder) constructFieldDefault(caller *types.Func, t types.Type) {
	for {
		if a, ok := t.(*types.Array); ok {
			t = a.Elem
			continue
		}
		break
	}
	if c := types.IsClass(t); c != nil {
		b.construct(caller, c, nil)
	}
}

// destroy records the destructor-call closure for destroying an object of
// class cls (statically bound).
func (b *refBuilder) destroy(caller *types.Func, cls *types.Class) {
	if d := cls.Dtor(); d != nil {
		b.addEdge(caller, d)
	}
	for _, bs := range cls.Bases {
		b.destroy(caller, bs.Class)
	}
	for _, f := range cls.Fields {
		t := f.Type
		for {
			if a, ok := t.(*types.Array); ok {
				t = a.Elem
				continue
			}
			break
		}
		if c := types.IsClass(t); c != nil {
			b.destroy(caller, c)
		}
	}
}

// destroyDynamic handles `delete p` where p's static class may have
// subclasses with virtual destructors.
func (b *refBuilder) destroyDynamic(caller *types.Func, static *types.Class) {
	d := static.Dtor()
	virtual := d != nil && d.Virtual
	if !virtual {
		// Also virtual if any base declares a virtual dtor.
		for bc := range refAllBases(b.h, static) {
			if bd := bc.Dtor(); bd != nil && bd.Virtual {
				virtual = true
				break
			}
		}
	}
	if !virtual {
		b.destroy(caller, static)
		return
	}
	for _, sub := range b.h.SubclassesOf(static) {
		if b.g.Mode == callgraph.RTA && !b.g.Instantiated[sub] {
			continue
		}
		b.dispatchWork++
		b.destroy(caller, sub)
	}
	if b.g.Mode == callgraph.RTA {
		// Later instantiations are checked against this site.
		b.dtorSites = append(b.dtorSites, refDtorSite{caller, static})
	}
}

func refAllBases(h *hierarchy.Graph, c *types.Class) map[*types.Class]bool {
	set := map[*types.Class]bool{}
	var walk func(x *types.Class)
	walk = func(x *types.Class) {
		for _, bs := range x.Bases {
			if !set[bs.Class] {
				set[bs.Class] = true
				walk(bs.Class)
			}
		}
	}
	walk(c)
	return set
}

// resolveVirtual adds edges for one virtual call site under the current
// instantiated-class set.
func (b *refBuilder) resolveVirtual(s refSite) {
	for _, sub := range b.h.SubclassesOf(s.static) {
		if b.g.Mode == callgraph.RTA && !b.g.Instantiated[sub] {
			continue
		}
		b.dispatchWork++
		if target := b.h.Overrides(sub, s.method.Name); target != nil {
			b.addEdge(s.caller, target)
		}
	}
}

// scan walks the body (and constructor initializer list) of f, adding
// edges for every call, allocation, and destruction site.
func (b *refBuilder) scan(f *types.Func) {
	if f.IsCtor && f.Owner != nil {
		b.scanCtorImplicit(f)
	}
	if f.IsDtor && f.Owner != nil {
		// A destructor implicitly destroys bases and class-typed members.
		for _, bs := range f.Owner.Bases {
			b.destroy(f, bs.Class)
		}
		for _, fld := range f.Owner.Fields {
			b.constructOrDestroyMemberDtor(f, fld.Type)
		}
	}
	// Constructor initializer arguments contain ordinary expressions
	// (calls, allocations) that execute before the body.
	for i := range f.Inits {
		for _, a := range f.Inits[i].Args {
			b.scanNode(f, a)
		}
	}
	if f.Body == nil {
		return
	}
	b.scanNode(f, f.Body)
}

// scanNode walks any AST subtree for call, allocation, and declaration
// sites occurring in function f.
func (b *refBuilder) scanNode(f *types.Func, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Call:
			b.scanCall(f, x)
		case *ast.New:
			if cls := types.IsClass(b.info.TypeExprs[x.Type]); cls != nil {
				ctor := b.info.NewCtors[x]
				if x.Len != nil {
					ctor = nil // array-new default-constructs
				}
				b.construct(f, cls, ctor)
			}
		case *ast.Delete:
			t := b.info.TypeOf(x.X)
			if cls := types.PointeeClass(t); cls != nil {
				b.destroyDynamic(f, cls)
			}
		case *ast.DeclStmt:
			b.scanVarDecl(f, x.Var)
		}
		return true
	})
}

func (b *refBuilder) constructOrDestroyMemberDtor(f *types.Func, t types.Type) {
	for {
		if a, ok := t.(*types.Array); ok {
			t = a.Elem
			continue
		}
		break
	}
	if c := types.IsClass(t); c != nil {
		b.destroy(f, c)
	}
}

// scanCtorImplicit adds edges for the constructor's initializer list and
// the implicit default construction of bases/members not named in it.
func (b *refBuilder) scanCtorImplicit(f *types.Func) {
	cls := f.Owner
	named := map[string]bool{}
	for i := range f.Inits {
		init := &f.Inits[i]
		named[init.Name] = true
		if base := b.info.CtorInitBases[init]; base != nil {
			b.construct(f, base, base.CtorByArity(len(init.Args)))
		} else if fld := b.info.CtorInitFields[init]; fld != nil {
			if mc := types.IsClass(fld.Type); mc != nil {
				b.construct(f, mc, mc.CtorByArity(len(init.Args)))
			}
		}
	}
	for _, bs := range cls.Bases {
		if !named[bs.Class.Name] {
			b.construct(f, bs.Class, nil)
		}
	}
	for _, fld := range cls.Fields {
		if named[fld.Name] {
			continue
		}
		b.constructFieldDefault(f, fld.Type)
	}
}

// scanVarDecl handles local declarations of class (or array-of-class)
// type: construction now, destruction at scope exit.
func (b *refBuilder) scanVarDecl(f *types.Func, v *ast.VarDecl) {
	t := b.info.VarTypes[v]
	b.instantiateVarType(f, t, b.info.VarCtors[v], v)
}

func (b *refBuilder) instantiateVarType(f *types.Func, t types.Type, ctor *types.Func, decl *ast.VarDecl) {
	if t == nil {
		return
	}
	isArray := false
	for {
		if a, ok := t.(*types.Array); ok {
			t = a.Elem
			isArray = true
			continue
		}
		break
	}
	cls := types.IsClass(t)
	if cls == nil {
		return
	}
	if isArray {
		ctor = nil // array elements default-construct
	}
	if decl != nil && decl.Init != nil {
		// Copy-initialization from an existing object: bitwise copy in
		// MC++; no constructor runs, but the class is instantiated and
		// its destructor will run.
		b.instantiate(f, cls)
		b.destroy(f, cls)
		return
	}
	b.construct(f, cls, ctor)
	b.destroy(f, cls)
}

// scanCall adds edges for one call expression appearing in caller.
func (b *refBuilder) scanCall(caller *types.Func, x *ast.Call) {
	switch fun := ast.Unparen(x.Fun).(type) {
	case *ast.Ident:
		if m, ok := b.info.IdentMethods[fun]; ok {
			// Implicit this->m(): dispatch through the enclosing class.
			b.methodCall(caller, caller.Owner, m, true, "")
			return
		}
		if f, ok := b.info.IdentFuncs[fun]; ok {
			if !f.Builtin {
				b.addEdge(caller, f)
			}
			return
		}
	case *ast.Member:
		m, ok := b.info.MethodRefs[fun]
		if !ok {
			return
		}
		recvClass := b.receiverClass(fun)
		b.methodCall(caller, recvClass, m, fun.Arrow, fun.Qual)
	}
}

func (b *refBuilder) receiverClass(fun *ast.Member) *types.Class {
	t := b.info.TypeOf(fun.X)
	if fun.Arrow {
		return types.PointeeClass(t)
	}
	return types.IsClass(t)
}

// methodCall resolves one method invocation. Dynamic dispatch applies when
// the method is virtual, the call is through a pointer (-> or implicit
// this->), and no explicit qualifier pins the target.
func (b *refBuilder) methodCall(caller *types.Func, static *types.Class, m *types.Func, throughPointer bool, qual string) {
	if static == nil {
		b.addEdge(caller, m)
		return
	}
	if m.Virtual && throughPointer && qual == "" {
		s := refSite{caller: caller, static: static, method: m}
		b.sites = append(b.sites, s)
		b.resolveVirtual(s)
		return
	}
	b.addEdge(caller, m)
}
