package element

import (
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("Bool")
	}
	if i, ok := Int(42).AsInt(); !ok || i != 42 {
		t.Error("Int")
	}
	if f, ok := Float(2.5).AsFloat(); !ok || f != 2.5 {
		t.Error("Float")
	}
	if s, ok := String("x").AsString(); !ok || s != "x" {
		t.Error("String")
	}
	if ts, ok := Time(7).AsTime(); !ok || ts != temporal.Instant(7) {
		t.Error("Time")
	}
	if !Null.IsNull() || Int(1).IsNull() {
		t.Error("IsNull")
	}
	if _, ok := Int(1).AsString(); ok {
		t.Error("kind mismatch should report !ok")
	}
	if f, ok := Int(3).AsFloat(); !ok || f != 3 {
		t.Error("int should widen to float")
	}
}

func TestValueMustAccessorsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustString on int should panic")
		}
	}()
	_ = Int(1).MustString()
}

func TestValueTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null, false}, {Bool(false), false}, {Bool(true), true},
		{Int(0), false}, {Int(-1), true},
		{Float(0), false}, {Float(0.1), true},
		{String(""), false}, {String("a"), true},
		{Time(0), true},
	}
	for _, c := range cases {
		if c.v.Truthy() != c.want {
			t.Errorf("Truthy(%s): want %v", c.v, c.want)
		}
	}
}

func TestValueEqualNumericCrossKind(t *testing.T) {
	if !Int(2).Equal(Float(2)) || !Float(2).Equal(Int(2)) {
		t.Error("numeric cross-kind equality")
	}
	if Int(2).Equal(String("2")) {
		t.Error("int should not equal string")
	}
	if !Null.Equal(Null) {
		t.Error("null equals null")
	}
}

func TestValueCompare(t *testing.T) {
	if Int(1).Compare(Int(2)) != -1 || Int(2).Compare(Int(1)) != 1 || Int(2).Compare(Int(2)) != 0 {
		t.Error("int compare")
	}
	if Int(1).Compare(Float(1.5)) != -1 {
		t.Error("numeric cross compare")
	}
	if String("a").Compare(String("b")) != -1 {
		t.Error("string compare")
	}
	if Null.Compare(Int(0)) != -1 {
		t.Error("null sorts first")
	}
}

func TestValueKeyDistinguishesKinds(t *testing.T) {
	seen := map[string]Value{
		Bool(true).Key():  Bool(true),
		Int(1).Key():      Int(1),
		String("1").Key(): String("1"),
		Time(1).Key():     Time(1),
		Float(1).Key():    Float(1),
		Null.Key():        Null,
	}
	if len(seen) != 6 {
		t.Errorf("keys collide: %v", seen)
	}
}

func TestValueKeyEqualQuick(t *testing.T) {
	f := func(a, b int32) bool {
		va, vb := Int(int64(a)), Int(int64(b))
		return (va.Key() == vb.Key()) == va.Equal(vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(Field{"user", KindString}, Field{"amount", KindFloat})
	if s.Len() != 2 || s.Index("user") != 0 || s.Index("amount") != 1 || s.Index("nope") != -1 {
		t.Error("schema index")
	}
	if s.String() == "" {
		t.Error("schema string")
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate field should panic")
		}
	}()
	NewSchema(Field{"a", KindInt}, Field{"a", KindInt})
}

func TestTuple(t *testing.T) {
	s := NewSchema(Field{"user", KindString}, Field{"n", KindInt})
	tp := NewTuple(s, String("ann"), Int(3))
	if v, ok := tp.Get("user"); !ok || v.MustString() != "ann" {
		t.Error("Get")
	}
	if _, ok := tp.Get("nope"); ok {
		t.Error("Get unknown")
	}
	if tp.MustGet("n").MustInt() != 3 {
		t.Error("MustGet")
	}
	if tp.Key() != NewTuple(s, String("ann"), Int(3)).Key() {
		t.Error("Key should agree on equal tuples")
	}
	if tp.Key() == NewTuple(s, String("ann"), Int(9)).Key() {
		t.Error("Key should differ")
	}
}

func TestTupleArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	NewTuple(NewSchema(Field{"a", KindInt}), Int(1), Int(2))
}

func TestElementOrdering(t *testing.T) {
	s := NewSchema(Field{"x", KindInt})
	a := New("S", 10, NewTuple(s, Int(1)))
	b := New("S", 10, NewTuple(s, Int(2)))
	b.Seq = 1
	c := New("S", 5, NewTuple(s, Int(3)))
	els := []*Element{b, a, c}
	SortElements(els)
	if els[0] != c || els[1] != a || els[2] != b {
		t.Errorf("sort order wrong: %v", els)
	}
	if !c.Before(a) || a.Before(c) {
		t.Error("Before wrong")
	}
}

func TestFact(t *testing.T) {
	f := NewFact("u1", "position", String("room1"), temporal.NewInterval(10, 20))
	if f.Key() != (FactKey{"u1", "position"}) {
		t.Error("Key")
	}
	if !f.Validity.Contains(10) || f.Validity.Contains(20) {
		t.Error("validity half-open")
	}
	if f.IsCurrent() {
		t.Error("finite validity is not current")
	}
	open := NewFact("u1", "position", String("room2"), temporal.Since(20))
	if !open.IsCurrent() {
		t.Error("open validity is current")
	}
	c := f.Clone()
	c.Value = String("other")
	if f.Value.MustString() != "room1" {
		t.Error("clone should be independent")
	}
	if f.String() == "" || f.Key().String() != "position(u1)" {
		t.Error("strings")
	}
	f.Derived = true
	if f.String() == NewFact("u1", "position", String("room1"), temporal.NewInterval(10, 20)).String() {
		t.Error("derived tag should show")
	}
}
