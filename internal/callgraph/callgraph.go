// Package callgraph constructs call graphs of MC++ programs at three
// precision levels:
//
//   - ALL: every function with a body is reachable (no call graph at all);
//     the weakest baseline.
//   - CHA: Class Hierarchy Analysis; a virtual call through static class X
//     reaches the overriders in all subclasses of X.
//   - RTA: Rapid Type Analysis (Bacon & Sweeney, OOPSLA'96); like CHA but
//     dispatch only considers classes instantiated in reachable code. This
//     approximates the PVG algorithm the paper's implementation used.
//
// The paper's algorithm (Figure 2, line 5) only needs the set of reachable
// functions; edges are additionally recorded for reporting and ablations.
//
// CHA and RTA resolve virtual dispatch through dispatch slots: one slot
// per (static class, method name) pair called virtually, holding its
// deduplicated callers and the targets resolved so far. A slot resolves
// over the static class's subclasses once, when first called; under RTA a
// newly instantiated class is then probed once per slot on itself or a
// base, and only a target new to the slot fans out to the slot's callers.
// Construction is therefore linear in call sites plus instantiated
// classes times the slots on their bases, plus the edges it records.
package callgraph

import (
	"sort"

	"deadmembers/internal/ast"
	"deadmembers/internal/hierarchy"
	"deadmembers/internal/types"
)

// Mode selects the construction algorithm.
type Mode int

// Construction modes, in increasing order of precision.
const (
	ALL Mode = iota
	CHA
	RTA
)

// String returns the conventional acronym.
func (m Mode) String() string {
	switch m {
	case ALL:
		return "ALL"
	case CHA:
		return "CHA"
	case RTA:
		return "RTA"
	}
	return "?"
}

// Graph is a constructed call graph.
type Graph struct {
	Mode Mode

	// Reachable is the set of functions transitively callable from main
	// (plus extra roots).
	Reachable map[*types.Func]bool

	// Edges records resolved call edges (caller -> callees), deduplicated.
	// The order of each callee list is unspecified.
	Edges map[*types.Func][]*types.Func

	// Instantiated is the set of classes constructed in reachable code
	// (for RTA this drives dispatch; for other modes it is informational).
	Instantiated map[*types.Class]bool

	// reachable is Reachable in ReachableFuncs order, sorted once by
	// Build: graphs are shared read-only across goroutines.
	reachable []*types.Func
}

// Options configures construction.
type Options struct {
	Mode Mode

	// ExtraRoots are treated as reachable in addition to main — e.g.
	// methods overriding virtual functions of library classes, which a
	// library may call back (paper Section 3.3).
	ExtraRoots []*types.Func
}

// Build constructs the call graph of prog under opts.
func Build(prog *types.Program, h *hierarchy.Graph, opts Options) *Graph {
	return newBuilder(prog, h, opts.Mode).build(opts)
}

func newBuilder(prog *types.Program, h *hierarchy.Graph, mode Mode) *builder {
	return &builder{
		prog: prog,
		h:    h,
		info: prog.Info,
		g: &Graph{
			Mode:         mode,
			Reachable:    map[*types.Func]bool{},
			Edges:        map[*types.Func][]*types.Func{},
			Instantiated: map[*types.Class]bool{},
		},
		edgeSet:  map[edge]bool{},
		slots:    map[slotKey]*slot{},
		slotsOn:  map[*types.Class][]*slot{},
		deleters: map[*types.Class]*funcSet{},
	}
}

func (b *builder) build(opts Options) *Graph {
	if opts.Mode == ALL {
		for _, f := range b.prog.AllFuncs() {
			if f.Body != nil {
				b.g.Reachable[f] = true
			}
		}
		for _, c := range b.prog.Classes {
			b.g.Instantiated[c] = true
		}
	} else {
		// Global class-typed variables are constructed before main and
		// destroyed after it: their constructors/destructors are roots.
		for _, gv := range b.prog.Globals {
			b.instantiateVarType(nil, gv.Type, b.info.VarCtors[gv.Decl], gv.Decl)
		}
		if b.prog.Main != nil {
			b.addReachable(b.prog.Main)
		}
		for _, r := range opts.ExtraRoots {
			b.addReachable(r)
		}
		b.run()
	}
	b.g.reachable = sortedFuncs(b.g.Reachable)
	return b.g
}

type edge struct{ from, to *types.Func }

// funcSet is an insertion-ordered set of functions.
type funcSet struct {
	list []*types.Func
	has  map[*types.Func]bool
}

// add inserts f and reports whether it was new.
func (s *funcSet) add(f *types.Func) bool {
	if s.has[f] {
		return false
	}
	if s.has == nil {
		s.has = map[*types.Func]bool{}
	}
	s.has[f] = true
	s.list = append(s.list, f)
	return true
}

type slotKey struct {
	static *types.Class
	name   string
}

// slot is the dispatch slot of virtual method name called through a
// pointer of one static class. Every caller has an edge to every target.
type slot struct {
	name    string
	callers funcSet
	targets funcSet
}

type builder struct {
	prog    *types.Program
	h       *hierarchy.Graph
	info    *types.Info
	g       *Graph
	work    []*types.Func
	edgeSet map[edge]bool

	// slots indexes dispatch slots by key; slotsOn lists them by static
	// class for the instantiation walk.
	slots   map[slotKey]*slot
	slotsOn map[*types.Class][]*slot

	// deleters holds, per static class, the callers of a virtually
	// dispatched delete through a pointer to it.
	deleters map[*types.Class]*funcSet

	// dispatchWork counts Overrides probes and caller fan-outs, for the
	// scaling test.
	dispatchWork int
}

func (b *builder) addEdge(from, to *types.Func) {
	if to == nil {
		return
	}
	if from != nil {
		e := edge{from, to}
		if !b.edgeSet[e] {
			b.edgeSet[e] = true
			b.g.Edges[from] = append(b.g.Edges[from], to)
		}
	}
	b.addReachable(to)
}

func (b *builder) addReachable(f *types.Func) {
	if f == nil || f.Builtin || b.g.Reachable[f] {
		return
	}
	b.g.Reachable[f] = true
	if f.Body != nil || f.IsCtor || f.IsDtor {
		b.work = append(b.work, f)
	}
}

func (b *builder) run() {
	for {
		if len(b.work) == 0 {
			break
		}
		f := b.work[len(b.work)-1]
		b.work = b.work[:len(b.work)-1]
		b.scan(f)
	}
}

// instantiate marks cls as constructed. Under RTA it also dispatches cls
// into the slots and deleters of itself and its bases, since a newly
// instantiated class can add dispatch targets.
func (b *builder) instantiate(caller *types.Func, cls *types.Class) {
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
	if b.g.Mode == RTA {
		b.dispatchInstance(cls, cls)
		for _, base := range b.h.AllBases(cls) {
			b.dispatchInstance(base, cls)
		}
	}
}

// dispatchInstance adds the newly instantiated class cls as a receiver to
// the slots and deleters of static, one of cls and its bases. Each slot
// probes cls once; only a target new to the slot fans out to its callers.
func (b *builder) dispatchInstance(static, cls *types.Class) {
	for _, s := range b.slotsOn[static] {
		b.dispatchWork++
		target := b.h.Overrides(cls, s.name)
		if target == nil || !s.targets.add(target) {
			continue
		}
		for _, caller := range s.callers.list {
			b.dispatchWork++
			b.addEdge(caller, target)
		}
	}
	if ds := b.deleters[static]; ds != nil {
		for _, caller := range ds.list {
			b.dispatchWork++
			b.destroy(caller, cls)
		}
	}
}

func (b *builder) instantiateFieldType(caller *types.Func, t types.Type) {
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
func (b *builder) construct(caller *types.Func, cls *types.Class, ctor *types.Func) {
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

func (b *builder) constructFieldDefault(caller *types.Func, t types.Type) {
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
func (b *builder) destroy(caller *types.Func, cls *types.Class) {
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
// subclasses with virtual destructors. A virtual delete registers caller
// as a deleter of static once; later instantiations reach it through
// dispatchInstance.
func (b *builder) destroyDynamic(caller *types.Func, static *types.Class) {
	if !b.virtualDtor(static) {
		b.destroy(caller, static)
		return
	}
	ds := b.deleters[static]
	if ds == nil {
		ds = &funcSet{}
		b.deleters[static] = ds
	}
	if !ds.add(caller) {
		return
	}
	for _, sub := range b.h.SubclassesOf(static) {
		if b.g.Mode == RTA && !b.g.Instantiated[sub] {
			continue
		}
		b.dispatchWork++
		b.destroy(caller, sub)
	}
}

// virtualDtor reports whether cls or any of its bases declares a virtual
// destructor.
func (b *builder) virtualDtor(cls *types.Class) bool {
	if d := cls.Dtor(); d != nil && d.Virtual {
		return true
	}
	for _, bc := range b.h.AllBases(cls) {
		if d := bc.Dtor(); d != nil && d.Virtual {
			return true
		}
	}
	return false
}

// slotOf returns the dispatch slot of name called through static,
// creating it on first use. Creation resolves the slot's targets over the
// subclasses of static that are instantiated (all of them under CHA).
func (b *builder) slotOf(static *types.Class, name string) *slot {
	key := slotKey{static, name}
	if s := b.slots[key]; s != nil {
		return s
	}
	s := &slot{name: name}
	b.slots[key] = s
	b.slotsOn[static] = append(b.slotsOn[static], s)
	for _, sub := range b.h.SubclassesOf(static) {
		if b.g.Mode == RTA && !b.g.Instantiated[sub] {
			continue
		}
		b.dispatchWork++
		if target := b.h.Overrides(sub, name); target != nil {
			s.targets.add(target)
		}
	}
	return s
}

// scan walks the body (and constructor initializer list) of f, adding
// edges for every call, allocation, and destruction site.
func (b *builder) scan(f *types.Func) {
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
func (b *builder) scanNode(f *types.Func, root ast.Node) {
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

func (b *builder) constructOrDestroyMemberDtor(f *types.Func, t types.Type) {
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
func (b *builder) scanCtorImplicit(f *types.Func) {
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
func (b *builder) scanVarDecl(f *types.Func, v *ast.VarDecl) {
	t := b.info.VarTypes[v]
	b.instantiateVarType(f, t, b.info.VarCtors[v], v)
}

func (b *builder) instantiateVarType(f *types.Func, t types.Type, ctor *types.Func, decl *ast.VarDecl) {
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
func (b *builder) scanCall(caller *types.Func, x *ast.Call) {
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

func (b *builder) receiverClass(fun *ast.Member) *types.Class {
	t := b.info.TypeOf(fun.X)
	if fun.Arrow {
		return types.PointeeClass(t)
	}
	return types.IsClass(t)
}

// methodCall resolves one method invocation. Dynamic dispatch applies when
// the method is virtual, the call is through a pointer (-> or implicit
// this->), and no explicit qualifier pins the target.
func (b *builder) methodCall(caller *types.Func, static *types.Class, m *types.Func, throughPointer bool, qual string) {
	if static == nil {
		b.addEdge(caller, m)
		return
	}
	if m.Virtual && throughPointer && qual == "" {
		s := b.slotOf(static, m.Name)
		if s.callers.add(caller) {
			for _, target := range s.targets.list {
				b.dispatchWork++
				b.addEdge(caller, target)
			}
		}
		return
	}
	b.addEdge(caller, m)
}

// ReachableFuncs returns the reachable functions sorted by qualified name,
// then declaration position (overloaded constructors share a name), for
// deterministic reporting. The slice is computed once by Build and shared
// by every caller: it is read-only.
func (g *Graph) ReachableFuncs() []*types.Func { return g.reachable }

func sortedFuncs(set map[*types.Func]bool) []*types.Func {
	type keyed struct {
		name string
		f    *types.Func
	}
	keys := make([]keyed, 0, len(set))
	for f := range set {
		keys = append(keys, keyed{f.QualifiedName(), f})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].f.Pos < keys[j].f.Pos
	})
	out := make([]*types.Func, len(keys))
	for i, k := range keys {
		out[i] = k.f
	}
	return out
}

// InstantiatedClasses returns the instantiated classes sorted by name.
func (g *Graph) InstantiatedClasses() []*types.Class {
	out := make([]*types.Class, 0, len(g.Instantiated))
	for c := range g.Instantiated {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// UsedClasses returns the classes for which a constructor call occurs
// anywhere in the program text (Table 1's "used classes" column): class
// variable declarations, new-expressions, constructor initializer targets,
// and class-typed members/bases of used classes.
func UsedClasses(prog *types.Program) map[*types.Class]bool {
	used := map[*types.Class]bool{}
	var mark func(c *types.Class)
	mark = func(c *types.Class) {
		if c == nil || used[c] {
			return
		}
		used[c] = true
		for _, bs := range c.Bases {
			mark(bs.Class)
		}
		for _, f := range c.Fields {
			t := f.Type
			for {
				if a, ok := t.(*types.Array); ok {
					t = a.Elem
					continue
				}
				break
			}
			mark(types.IsClass(t))
		}
	}
	markType := func(t types.Type) {
		for {
			if a, ok := t.(*types.Array); ok {
				t = a.Elem
				continue
			}
			break
		}
		mark(types.IsClass(t))
	}
	for _, v := range prog.Globals {
		markType(v.Type)
	}
	for _, t := range prog.Info.VarTypes {
		markType(t)
	}
	for n := range prog.Info.NewCtors {
		markType(prog.Info.TypeExprs[n.Type])
	}
	// new C[n] expressions have no NewCtors entry when C is ctor-less;
	// scan all new expressions via TypeExprs of their type nodes.
	for _, f := range prog.AllFuncs() {
		if f.Body == nil {
			continue
		}
		ast.Inspect(f.Body, func(n ast.Node) bool {
			if x, ok := n.(*ast.New); ok {
				markType(prog.Info.TypeExprs[x.Type])
			}
			return true
		})
	}
	return used
}
