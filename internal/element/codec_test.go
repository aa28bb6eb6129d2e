package element

import (
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

func TestValueBinaryRoundTrip(t *testing.T) {
	vals := []Value{
		Null,
		Bool(true), Bool(false),
		Int(0), Int(-1), Int(1<<62 + 7),
		Float(0), Float(-2.5), Float(1e300),
		String(""), String("héllo"), String("with'quote"),
		Time(temporal.Instant(123456789)), Time(temporal.Forever),
	}
	for _, v := range vals {
		data, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal %s: %v", v, err)
		}
		var got Value
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal %s: %v", v, err)
		}
		if got.Kind() != v.Kind() {
			t.Errorf("%s: kind changed to %s", v, got.Kind())
		}
		if !got.Equal(v) && !(got.IsNull() && v.IsNull()) {
			t.Errorf("%s: round-tripped to %s", v, got)
		}
	}
}

// TestValueAppendBinary: the append form writes exactly MarshalBinary's
// bytes behind whatever the buffer already holds.
func TestValueAppendBinary(t *testing.T) {
	for _, v := range []Value{Null, Bool(true), Int(-3), Float(2.5), String("héllo"), Time(7)} {
		want, err := v.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.AppendBinary([]byte("prefix"))
		if err != nil || string(got) != "prefix"+string(want) {
			t.Fatalf("%s: appended %q, %v; want prefix%q", v, got, err, want)
		}
	}
}

func TestValueBinaryRoundTripQuick(t *testing.T) {
	f := func(i int64, fl float64, s string, which uint8) bool {
		var v Value
		switch which % 4 {
		case 0:
			v = Int(i)
		case 1:
			v = Float(fl)
		case 2:
			v = String(s)
		case 3:
			v = Time(temporal.Instant(i))
		}
		data, err := v.MarshalBinary()
		if err != nil {
			return false
		}
		var got Value
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		// NaN != NaN; compare bit-level via Key.
		return got.Key() == v.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueUnmarshalCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,                          // empty
		{99},                         // unknown kind
		{byte(KindInt)},              // truncated numeric
		{byte(KindInt), 1, 2, 3},     // short numeric
		{byte(KindFloat), 1},         // short float
		{byte(KindString)},           // missing length
		{byte(KindString), 200, 1},   // length beyond payload
		{byte(KindString), 5, 'a'},   // declared 5, got 1
		{byte(KindBool), 1, 2, 3, 4}, // wrong length bool
	}
	for _, data := range cases {
		var v Value
		if err := v.UnmarshalBinary(data); err == nil {
			t.Errorf("UnmarshalBinary(%v): want error", data)
		}
	}
}

func TestValueStringRendering(t *testing.T) {
	cases := map[string]Value{
		"null":  Null,
		"true":  Bool(true),
		"false": Bool(false),
		"-7":    Int(-7),
		"2.5":   Float(2.5),
		"hi":    String("hi"),
		"+inf":  Time(temporal.Forever),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("String(%v): got %q want %q", v.Kind(), v.String(), want)
		}
	}
}

func TestValueCompareCrossKinds(t *testing.T) {
	// Non-numeric cross-kind comparisons order by kind.
	if Bool(true).Compare(String("a")) >= 0 {
		t.Error("bool should sort before string by kind")
	}
	if String("a").Compare(Bool(true)) <= 0 {
		t.Error("inverse kind ordering")
	}
	if Bool(false).Compare(Bool(true)) != -1 || Bool(true).Compare(Bool(false)) != 1 {
		t.Error("bool ordering")
	}
	if Time(1).Compare(Time(2)) != -1 || Time(2).Compare(Time(2)) != 0 {
		t.Error("time ordering")
	}
	if Float(1.5).Compare(Float(2.5)) != -1 || Float(2.5).Compare(Float(1.5)) != 1 {
		t.Error("float ordering")
	}
}

func TestValueMustFloatAndKindAccessors(t *testing.T) {
	if Float(2.5).MustFloat() != 2.5 || Int(2).MustFloat() != 2 {
		t.Error("MustFloat")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustFloat on string should panic")
		}
	}()
	_ = String("x").MustFloat()
}

func TestSchemaFieldsAndTupleSchema(t *testing.T) {
	s := NewSchema(Field{"a", KindInt}, Field{"b", KindString})
	fields := s.Fields()
	if len(fields) != 2 || fields[0].Name != "a" {
		t.Error("Fields")
	}
	fields[0].Name = "mutated"
	if s.Field(0).Name != "a" {
		t.Error("Fields should return a copy")
	}
	tp := NewTuple(s, Int(1), String("x"))
	if tp.Schema() != s {
		t.Error("Tuple.Schema")
	}
	if tp.String() == "" {
		t.Error("Tuple.String")
	}
}

func TestElementAccessorsAndString(t *testing.T) {
	s := NewSchema(Field{"k", KindString})
	e := New("S", 5, NewTuple(s, String("v")))
	if v, ok := e.Get("k"); !ok || v.MustString() != "v" {
		t.Error("Element.Get")
	}
	if e.MustGet("k").MustString() != "v" {
		t.Error("Element.MustGet")
	}
	if e.String() == "" {
		t.Error("Element.String")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGet unknown field should panic")
		}
	}()
	e.MustGet("nope")
}
