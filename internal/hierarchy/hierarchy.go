// Package hierarchy implements class-hierarchy algorithms for MC++: base
// class relations (including virtual inheritance), C++ member lookup with
// hiding and ambiguity detection, and the object layout model used for the
// byte-exact dynamic measurements of Table 2 of the paper.
package hierarchy

import (
	"fmt"
	"sort"

	"deadmembers/internal/types"
)

// Graph provides hierarchy queries over the classes of a program. Build one
// with New after semantic analysis.
type Graph struct {
	classes []*types.Class

	// derived maps each class to its direct subclasses.
	derived map[*types.Class][]*types.Class

	// allBases maps each class to the set of its transitive bases
	// (virtual and non-virtual), excluding itself.
	allBases map[*types.Class]map[*types.Class]bool

	layouts map[*types.Class]*Layout

	// Memoization caches: hierarchy queries are invoked per call site and
	// per allocated object, so they must be O(1) after first use for the
	// whole analysis to stay near-linear (paper §3.4).
	subclassesCache map[*types.Class][]*types.Class
	basesCache      map[*types.Class][]*types.Class
	vbasesCache     map[*types.Class][]*types.Class
	overridesCache  map[lookupKey]*types.Func
	polyCache       map[*types.Class]int8
}

type lookupKey struct {
	class *types.Class
	name  string
}

// New builds the hierarchy graph for the given classes.
func New(classes []*types.Class) *Graph {
	g := &Graph{
		classes:         classes,
		derived:         map[*types.Class][]*types.Class{},
		allBases:        map[*types.Class]map[*types.Class]bool{},
		layouts:         map[*types.Class]*Layout{},
		subclassesCache: map[*types.Class][]*types.Class{},
		basesCache:      map[*types.Class][]*types.Class{},
		vbasesCache:     map[*types.Class][]*types.Class{},
		overridesCache:  map[lookupKey]*types.Func{},
		polyCache:       map[*types.Class]int8{},
	}
	for _, c := range classes {
		for _, b := range c.Bases {
			g.derived[b.Class] = append(g.derived[b.Class], c)
		}
	}
	for _, c := range classes {
		g.allBases[c] = map[*types.Class]bool{}
		g.collectBases(c, g.allBases[c])
	}
	return g
}

func (g *Graph) collectBases(c *types.Class, into map[*types.Class]bool) {
	for _, b := range c.Bases {
		if !into[b.Class] {
			into[b.Class] = true
			g.collectBases(b.Class, into)
		}
	}
}

// Classes returns the classes the graph was built from.
func (g *Graph) Classes() []*types.Class { return g.classes }

// IsBaseOf reports whether base is a (transitive, possibly virtual) base
// class of derived. A class is not its own base.
func (g *Graph) IsBaseOf(base, derived *types.Class) bool {
	return g.allBases[derived][base]
}

// AllBases returns the transitive bases of c (virtual and non-virtual,
// each once, excluding c itself), sorted by name. The result is memoized;
// callers must not mutate it.
func (g *Graph) AllBases(c *types.Class) []*types.Class {
	if cached, ok := g.basesCache[c]; ok {
		return cached
	}
	out := make([]*types.Class, 0, len(g.allBases[c]))
	for b := range g.allBases[c] {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	g.basesCache[c] = out
	return out
}

// Related reports whether a and b are the same class or related by
// inheritance in either direction.
func (g *Graph) Related(a, b *types.Class) bool {
	return a == b || g.IsBaseOf(a, b) || g.IsBaseOf(b, a)
}

// DirectSubclasses returns the classes that list c as a direct base.
func (g *Graph) DirectSubclasses(c *types.Class) []*types.Class {
	return g.derived[c]
}

// SubclassesOf returns c and all its transitive subclasses, in a
// deterministic order. The result is memoized; callers must not mutate it.
func (g *Graph) SubclassesOf(c *types.Class) []*types.Class {
	if cached, ok := g.subclassesCache[c]; ok {
		return cached
	}
	seen := map[*types.Class]bool{c: true}
	out := []*types.Class{c}
	for i := 0; i < len(out); i++ {
		for _, d := range g.derived[out[i]] {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	g.subclassesCache[c] = out
	return out
}

// VirtualBases returns the set of virtual base classes of c (transitively:
// a virtual base anywhere in the inheritance DAG appears once), in a
// deterministic order. The result is memoized; callers must not mutate it.
func (g *Graph) VirtualBases(c *types.Class) []*types.Class {
	if cached, ok := g.vbasesCache[c]; ok {
		return cached
	}
	seen := map[*types.Class]bool{}
	out := []*types.Class{}
	var walk func(*types.Class)
	walk = func(x *types.Class) {
		for _, b := range x.Bases {
			if b.Virtual && !seen[b.Class] {
				seen[b.Class] = true
				out = append(out, b.Class)
			}
			walk(b.Class)
		}
	}
	walk(c)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	g.vbasesCache[c] = out
	return out
}

// IsPolymorphic reports whether c has virtual methods, declared or
// inherited, or virtual bases (and therefore carries a vptr). Memoized.
func (g *Graph) IsPolymorphic(c *types.Class) bool {
	if v, ok := g.polyCache[c]; ok {
		return v == 1
	}
	poly := false
	if c.HasVirtualMethods() || len(g.VirtualBases(c)) > 0 {
		poly = true
	} else {
		for b := range g.allBases[c] {
			if b.HasVirtualMethods() {
				poly = true
				break
			}
		}
	}
	if poly {
		g.polyCache[c] = 1
	} else {
		g.polyCache[c] = 2
	}
	return poly
}

// AmbiguityError reports an ambiguous member lookup.
type AmbiguityError struct {
	Class *types.Class
	Name  string
	Cands []string
}

func (e *AmbiguityError) Error() string {
	return fmt.Sprintf("member %q is ambiguous in class %s (candidates: %v)",
		e.Name, e.Class.Name, e.Cands)
}

// NotFoundError reports a failed member lookup.
type NotFoundError struct {
	Class *types.Class
	Name  string
}

func (e *NotFoundError) Error() string {
	return fmt.Sprintf("class %s has no member named %q", e.Class.Name, e.Name)
}

// LookupField implements C++ data-member lookup: find the field named name
// in class x or its bases, honoring hiding (a declaration in a derived
// class hides declarations along the same path) and detecting ambiguity
// across distinct base subobjects. Members shared through a common virtual
// base are not ambiguous.
//
// This is the Lookup function of the paper's algorithm (Figure 2): the
// returned field's Owner is the class C such that the access e.m resolves
// to C::m.
func (g *Graph) LookupField(x *types.Class, name string) (*types.Field, error) {
	fields, _ := g.lookup(x, name)
	return g.resolveFieldCandidates(x, name, fields)
}

// LookupMethod is the method analogue of LookupField.
func (g *Graph) LookupMethod(x *types.Class, name string) (*types.Func, error) {
	_, methods := g.lookup(x, name)
	uniq := map[*types.Func]bool{}
	var out []*types.Func
	for _, m := range methods {
		if !uniq[m] {
			uniq[m] = true
			out = append(out, m)
		}
	}
	switch len(out) {
	case 0:
		return nil, &NotFoundError{Class: x, Name: name}
	case 1:
		return out[0], nil
	}
	var cands []string
	for _, m := range out {
		cands = append(cands, m.QualifiedName())
	}
	sort.Strings(cands)
	return nil, &AmbiguityError{Class: x, Name: name, Cands: cands}
}

func (g *Graph) resolveFieldCandidates(x *types.Class, name string, fields []*types.Field) (*types.Field, error) {
	uniq := map[*types.Field]bool{}
	var out []*types.Field
	for _, f := range fields {
		if !uniq[f] {
			uniq[f] = true
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return nil, &NotFoundError{Class: x, Name: name}
	case 1:
		return out[0], nil
	}
	var cands []string
	for _, f := range out {
		cands = append(cands, f.QualifiedName())
	}
	sort.Strings(cands)
	return nil, &AmbiguityError{Class: x, Name: name, Cands: cands}
}

// lookup returns all field and method declarations named name visible in x,
// stopping descent at any class that declares the name (hiding). Results
// may contain duplicates when reached through multiple paths; callers
// deduplicate (which collapses shared virtual bases).
func (g *Graph) lookup(x *types.Class, name string) ([]*types.Field, []*types.Func) {
	if f := x.FieldByName(name); f != nil {
		return []*types.Field{f}, nil
	}
	if m := x.MethodByName(name); m != nil {
		return nil, []*types.Func{m}
	}
	var fields []*types.Field
	var methods []*types.Func
	for _, b := range x.Bases {
		fs, ms := g.lookup(b.Class, name)
		fields = append(fields, fs...)
		methods = append(methods, ms...)
	}
	return fields, methods
}

// LookupQualifiedField resolves a qualified access `e.Y::m`: the member m
// must be found in Y or Y's bases (Y itself may be a base of the static
// type of e; that relationship is validated by sema, not here).
func (g *Graph) LookupQualifiedField(y *types.Class, name string) (*types.Field, error) {
	return g.LookupField(y, name)
}

// Overrides returns the method that class c (searching c and then its
// bases) provides for the virtual method named name, or nil. Used by call
// graph construction to resolve dynamic dispatch for a receiver of exact
// class c. Memoized: dispatch resolution runs once per (class, name).
func (g *Graph) Overrides(c *types.Class, name string) *types.Func {
	key := lookupKey{c, name}
	if m, ok := g.overridesCache[key]; ok {
		return m
	}
	m, err := g.LookupMethod(c, name)
	if err != nil {
		m = nil
	}
	g.overridesCache[key] = m
	return m
}

// OverridersOf returns every method that may be invoked by a virtual call
// to base method m through a receiver whose static class is stat: the
// lookup result for each subclass of stat. The returned set is
// deduplicated and deterministic.
func (g *Graph) OverridersOf(stat *types.Class, m *types.Func) []*types.Func {
	seen := map[*types.Func]bool{}
	var out []*types.Func
	for _, sub := range g.SubclassesOf(stat) {
		if target := g.Overrides(sub, m.Name); target != nil && !seen[target] {
			seen[target] = true
			out = append(out, target)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].QualifiedName() < out[j].QualifiedName()
	})
	return out
}
