package hierarchy

import (
	"testing"

	"deadmembers/internal/types"
)

// mkClass builds a class with n int fields.
func mkClass(name string, fields int, bases ...types.Base) *types.Class {
	c := &types.Class{Name: name, Complete: true, Bases: bases}
	for i := 0; i < fields; i++ {
		c.Fields = append(c.Fields, &types.Field{
			Name: name + "_f" + string(rune('a'+i)), Type: types.IntType, Owner: c, Index: i,
		})
	}
	return c
}

func addField(c *types.Class, name string, t types.Type) *types.Field {
	f := &types.Field{Name: name, Type: t, Owner: c, Index: len(c.Fields)}
	c.Fields = append(c.Fields, f)
	return f
}

func addMethod(c *types.Class, name string, virtual bool) *types.Func {
	m := &types.Func{Name: name, Owner: c, Virtual: virtual}
	c.Methods = append(c.Methods, m)
	return m
}

func TestBaseRelations(t *testing.T) {
	a := mkClass("A", 1)
	b := mkClass("B", 1, types.Base{Class: a})
	c := mkClass("C", 1, types.Base{Class: b})
	d := mkClass("D", 1)
	g := New([]*types.Class{a, b, c, d})

	if !g.IsBaseOf(a, c) || !g.IsBaseOf(b, c) || !g.IsBaseOf(a, b) {
		t.Error("transitive base relation broken")
	}
	if g.IsBaseOf(c, a) || g.IsBaseOf(a, a) || g.IsBaseOf(d, c) {
		t.Error("spurious base relation")
	}
	if !g.Related(a, c) || !g.Related(c, a) || g.Related(a, d) {
		t.Error("Related broken")
	}
	subs := g.SubclassesOf(a)
	if len(subs) != 3 {
		t.Errorf("SubclassesOf(A) = %v, want A,B,C", subs)
	}
}

func TestLookupHiding(t *testing.T) {
	base := mkClass("Base", 0)
	bf := addField(base, "x", types.IntType)
	derived := mkClass("Derived", 0, types.Base{Class: base})
	df := addField(derived, "x", types.IntType) // hides Base::x
	g := New([]*types.Class{base, derived})

	got, err := g.LookupField(derived, "x")
	if err != nil || got != df {
		t.Fatalf("Derived::x should hide Base::x, got %v, %v", got, err)
	}
	got, err = g.LookupField(base, "x")
	if err != nil || got != bf {
		t.Fatalf("lookup in Base finds Base::x, got %v, %v", got, err)
	}
}

func TestLookupAmbiguity(t *testing.T) {
	l := mkClass("L", 0)
	addField(l, "v", types.IntType)
	r := mkClass("R", 0)
	addField(r, "v", types.IntType)
	d := mkClass("D", 0, types.Base{Class: l}, types.Base{Class: r})
	g := New([]*types.Class{l, r, d})

	_, err := g.LookupField(d, "v")
	if _, ok := err.(*AmbiguityError); !ok {
		t.Fatalf("want AmbiguityError, got %v", err)
	}
	_, err = g.LookupField(d, "nothere")
	if _, ok := err.(*NotFoundError); !ok {
		t.Fatalf("want NotFoundError, got %v", err)
	}
}

func TestLookupSharedVirtualBase(t *testing.T) {
	v := mkClass("V", 0)
	vf := addField(v, "shared", types.IntType)
	l := mkClass("L", 0, types.Base{Class: v, Virtual: true})
	r := mkClass("R", 0, types.Base{Class: v, Virtual: true})
	d := mkClass("D", 0, types.Base{Class: l}, types.Base{Class: r})
	g := New([]*types.Class{v, l, r, d})

	got, err := g.LookupField(d, "shared")
	if err != nil || got != vf {
		t.Fatalf("shared virtual base member should be unambiguous: %v, %v", got, err)
	}
	if vbs := g.VirtualBases(d); len(vbs) != 1 || vbs[0] != v {
		t.Fatalf("VirtualBases(D) = %v", vbs)
	}
	// Each transitive base once, sorted by name: the shared V appears once.
	if bs := g.AllBases(d); len(bs) != 3 || bs[0] != l || bs[1] != r || bs[2] != v {
		t.Fatalf("AllBases(D) = %v, want [L R V]", bs)
	}
	if bs := g.AllBases(v); len(bs) != 0 {
		t.Fatalf("AllBases(V) = %v, want none", bs)
	}
}

func TestOverriders(t *testing.T) {
	a := mkClass("A", 0)
	af := addMethod(a, "f", true)
	b := mkClass("B", 0, types.Base{Class: a})
	bf := addMethod(b, "f", true)
	c := mkClass("C", 0, types.Base{Class: b}) // inherits B::f
	g := New([]*types.Class{a, b, c})

	if got := g.Overrides(c, "f"); got != bf {
		t.Fatalf("C dispatches f to %v, want B::f", got)
	}
	overs := g.OverridersOf(a, af)
	if len(overs) != 2 {
		t.Fatalf("OverridersOf(A::f) = %v, want {A::f, B::f}", overs)
	}
}

func TestSizeOfScalars(t *testing.T) {
	g := New(nil)
	cases := []struct {
		t    types.Type
		size int
	}{
		{types.CharType, 1}, {types.BoolType, 1}, {types.IntType, 4},
		{types.DoubleType, 8}, {types.VoidType, 0},
		{&types.Pointer{Elem: types.IntType}, 8},
		{&types.Array{Elem: types.IntType, Len: 5}, 20},
		{&types.Array{Elem: types.DoubleType, Len: 3}, 24},
	}
	for _, tc := range cases {
		if got := g.SizeOf(tc.t); got != tc.size {
			t.Errorf("SizeOf(%s) = %d, want %d", tc.t, got, tc.size)
		}
	}
}

func TestLayoutSimpleClass(t *testing.T) {
	c := mkClass("C", 0)
	addField(c, "a", types.CharType)   // offset 0
	addField(c, "b", types.IntType)    // offset 4 (aligned)
	addField(c, "c", types.CharType)   // offset 8
	addField(c, "d", types.DoubleType) // offset 16
	g := New([]*types.Class{c})
	l := g.LayoutOf(c)
	wantOffsets := []int{0, 4, 8, 16}
	for i, mi := range l.Members {
		if mi.Offset != wantOffsets[i] {
			t.Errorf("member %d at offset %d, want %d", i, mi.Offset, wantOffsets[i])
		}
	}
	if l.Size != 24 || l.Align != 8 {
		t.Errorf("size/align = %d/%d, want 24/8", l.Size, l.Align)
	}
}

func TestLayoutPolymorphic(t *testing.T) {
	a := mkClass("A", 0)
	addMethod(a, "f", true)
	addField(a, "x", types.IntType)
	b := mkClass("B", 0, types.Base{Class: a})
	addField(b, "y", types.IntType)
	g := New([]*types.Class{a, b})

	la := g.LayoutOf(a)
	if la.Size != 16 || la.VptrBytes != 8 {
		t.Errorf("A: size=%d vptr=%d, want 16/8 (vptr + int + pad)", la.Size, la.VptrBytes)
	}
	lb := g.LayoutOf(b)
	if lb.VptrBytes != 8 {
		t.Errorf("B reuses A's vptr: vptr bytes = %d, want 8", lb.VptrBytes)
	}
	if lb.Size != 24 {
		t.Errorf("B size = %d, want 24 (A's 16 + int + pad)", lb.Size)
	}
}

func TestLayoutEmptyClass(t *testing.T) {
	c := mkClass("Empty", 0)
	g := New([]*types.Class{c})
	if got := g.LayoutOf(c).Size; got != 1 {
		t.Errorf("empty class size = %d, want 1", got)
	}
}

func TestLayoutVirtualBaseOnce(t *testing.T) {
	v := mkClass("V", 0)
	addField(v, "data", &types.Array{Elem: types.IntType, Len: 4})
	l := mkClass("L", 0, types.Base{Class: v, Virtual: true})
	addField(l, "l", types.IntType)
	r := mkClass("R", 0, types.Base{Class: v, Virtual: true})
	addField(r, "r", types.IntType)
	d := mkClass("D", 0, types.Base{Class: l}, types.Base{Class: r})
	g := New([]*types.Class{v, l, r, d})

	ld := g.LayoutOf(d)
	vCount := 0
	for _, mi := range ld.Members {
		if mi.Field.Name == "data" {
			vCount++
		}
	}
	if vCount != 1 {
		t.Errorf("virtual base fields appear %d times, want 1", vCount)
	}
	// Non-virtual diamond duplicates.
	l2 := mkClass("L2", 0, types.Base{Class: v})
	r2 := mkClass("R2", 0, types.Base{Class: v})
	d2 := mkClass("D2", 0, types.Base{Class: l2}, types.Base{Class: r2})
	g2 := New([]*types.Class{v, l2, r2, d2})
	vCount = 0
	for _, mi := range g2.LayoutOf(d2).Members {
		if mi.Field.Name == "data" {
			vCount++
		}
	}
	if vCount != 2 {
		t.Errorf("non-virtual diamond fields appear %d times, want 2", vCount)
	}
}

func TestUnionLayout(t *testing.T) {
	u := &types.Class{Name: "U", Kind: types.ClassUnion, Complete: true}
	addField(u, "i", types.IntType)
	addField(u, "d", types.DoubleType)
	addField(u, "c", types.CharType)
	g := New([]*types.Class{u})
	l := g.LayoutOf(u)
	if l.Size != 8 || l.Align != 8 {
		t.Errorf("union size/align = %d/%d, want 8/8", l.Size, l.Align)
	}
	for _, mi := range l.Members {
		if mi.Offset != 0 {
			t.Errorf("union member %s at offset %d, want 0", mi.Field.Name, mi.Offset)
		}
	}
}

func TestDeadBytesAndSizeWithout(t *testing.T) {
	c := mkClass("C", 0)
	live := addField(c, "live", types.IntType)
	dead := addField(c, "dead", types.DoubleType)
	g := New([]*types.Class{c})
	l := g.LayoutOf(c)
	isDead := func(f *types.Field) bool { return f == dead }
	if got := l.DeadBytes(isDead); got != 8 {
		t.Errorf("dead bytes = %d, want 8", got)
	}
	if got := l.SizeWithout(isDead); got != l.Size-8 {
		t.Errorf("size without dead = %d, want %d", got, l.Size-8)
	}
	if got := l.SizeWithout(func(*types.Field) bool { return false }); got != l.Size {
		t.Errorf("removing nothing must keep size %d, got %d", l.Size, got)
	}
	_ = live
}

// TestLayoutInvariants is a property test over randomized hierarchies:
// offsets are aligned and non-overlapping (outside unions), the size
// covers all members, and dead-byte accounting is consistent.
func TestLayoutInvariants(t *testing.T) {
	seeds := []uint64{1, 7, 42, 999, 31337}
	for _, seed := range seeds {
		classes := randomHierarchy(seed)
		g := New(classes)
		for _, c := range classes {
			l := g.LayoutOf(c)
			if l.Size < 1 {
				t.Fatalf("seed %d: class %s has size %d", seed, c.Name, l.Size)
			}
			if l.Size%l.Align != 0 {
				t.Fatalf("seed %d: class %s size %d not aligned to %d", seed, c.Name, l.Size, l.Align)
			}
			sum := 0
			for _, mi := range l.Members {
				if mi.Offset < 0 || mi.Offset+mi.Size > l.Size {
					t.Fatalf("seed %d: %s member %s at [%d,%d) outside size %d",
						seed, c.Name, mi.Field.Name, mi.Offset, mi.Offset+mi.Size, l.Size)
				}
				align := g.AlignOf(mi.Field.Type)
				if align > 0 && mi.Offset%align != 0 {
					t.Fatalf("seed %d: %s member %s misaligned at %d (align %d)",
						seed, c.Name, mi.Field.Name, mi.Offset, align)
				}
				sum += mi.Size
			}
			if !c.IsUnion() && sum+l.VptrBytes > l.Size {
				t.Fatalf("seed %d: %s members+vptr (%d) exceed size %d", seed, c.Name, sum+l.VptrBytes, l.Size)
			}
			// Dead-byte accounting: marking all fields dead accounts for
			// exactly the sum of member sizes.
			if got := l.DeadBytes(func(*types.Field) bool { return true }); got != sum {
				t.Fatalf("seed %d: %s DeadBytes(all) = %d, want %d", seed, c.Name, got, sum)
			}
		}
	}
}

// randomHierarchy builds a deterministic pseudo-random single/multiple
// inheritance hierarchy for property testing.
func randomHierarchy(seed uint64) []*types.Class {
	s := seed
	next := func(n int) int {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return int(s % uint64(n))
	}
	scalars := []types.Type{types.CharType, types.IntType, types.DoubleType,
		&types.Pointer{Elem: types.IntType}, &types.Array{Elem: types.CharType, Len: 3}}
	var classes []*types.Class
	for i := 0; i < 12; i++ {
		c := &types.Class{Name: "K" + string(rune('A'+i)), Complete: true}
		nf := 1 + next(5)
		for j := 0; j < nf; j++ {
			addField(c, "f"+string(rune('a'+j)), scalars[next(len(scalars))])
		}
		if i > 0 && next(3) > 0 {
			c.Bases = append(c.Bases, types.Base{Class: classes[next(i)], Virtual: next(4) == 0})
		}
		if i > 2 && next(4) == 0 {
			b := classes[next(i)]
			dup := false
			for _, existing := range c.Bases {
				if existing.Class == b {
					dup = true
				}
			}
			if !dup {
				c.Bases = append(c.Bases, types.Base{Class: b})
			}
		}
		if next(3) == 0 {
			addMethod(c, "vf", true)
		}
		classes = append(classes, c)
	}
	return classes
}
