package element

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/temporal"
)

// Field is one named, typed attribute of a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of fields describing the tuples of one stream.
// Schemas are immutable after construction and safe for concurrent use.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema from the given fields. Duplicate field names
// are rejected with a panic, since a schema is static configuration and a
// duplicate is a programming error.
func NewSchema(fields ...Field) *Schema {
	s := &Schema{fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		if _, dup := s.index[f.Name]; dup {
			panic(fmt.Sprintf("element: duplicate field %q in schema", f.Name))
		}
		s.index[f.Name] = i
	}
	return s
}

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field {
	out := make([]Field, len(s.fields))
	copy(out, s.fields)
	return out
}

// Index returns the position of the named field, or -1 if absent.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// String renders the schema as (name kind, ...).
func (s *Schema) String() string {
	parts := make([]string, len(s.fields))
	for i, f := range s.fields {
		parts[i] = f.Name + " " + f.Kind.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Tuple is one row conforming to a schema. Tuples are treated as immutable
// once built; operators that modify tuples copy them first.
type Tuple struct {
	schema *Schema
	values []Value
}

// NewTuple pairs a schema with its values. The value count must match the
// schema; a mismatch is a programming error and panics.
func NewTuple(schema *Schema, values ...Value) *Tuple {
	if len(values) != schema.Len() {
		panic(fmt.Sprintf("element: tuple has %d values for schema of %d fields",
			len(values), schema.Len()))
	}
	return &Tuple{schema: schema, values: values}
}

// Schema returns the tuple's schema.
func (t *Tuple) Schema() *Schema { return t.schema }

// Get returns the value of the named field; ok is false if the field is
// not in the schema.
func (t *Tuple) Get(name string) (Value, bool) {
	i := t.schema.Index(name)
	if i < 0 {
		return Null, false
	}
	return t.values[i], true
}

// MustGet returns the value of the named field and panics if absent.
func (t *Tuple) MustGet(name string) Value {
	v, ok := t.Get(name)
	if !ok {
		panic(fmt.Sprintf("element: tuple %s has no field %q", t, name))
	}
	return v
}

// Values returns a copy of the value slice.
func (t *Tuple) Values() []Value {
	out := make([]Value, len(t.values))
	copy(out, t.values)
	return out
}

// Key returns a canonical string for the whole tuple, usable as a map key.
func (t *Tuple) Key() string {
	parts := make([]string, len(t.values))
	for i, v := range t.values {
		parts[i] = v.Key()
	}
	return strings.Join(parts, "\x1f")
}

// String renders the tuple as {name: value, ...}.
func (t *Tuple) String() string {
	parts := make([]string, len(t.values))
	for i, v := range t.values {
		parts[i] = t.schema.fields[i].Name + ": " + v.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Element is one stream element: a typed tuple tagged with a stream (type)
// name, an application timestamp, and an arrival sequence number that
// breaks ties deterministically.
type Element struct {
	// Stream names the logical stream (event type) this element belongs
	// to, e.g. "Sale" or "RoomEntry".
	Stream string
	// Tuple carries the payload.
	Tuple *Tuple
	// Timestamp is the application time at which the event occurred.
	Timestamp temporal.Instant
	// Seq is a per-run arrival sequence number assigned by the source. It
	// provides a deterministic total order among equal timestamps.
	Seq uint64
}

// New builds an element.
func New(stream string, ts temporal.Instant, tuple *Tuple) *Element {
	return &Element{Stream: stream, Tuple: tuple, Timestamp: ts}
}

// Get is shorthand for e.Tuple.Get.
func (e *Element) Get(name string) (Value, bool) { return e.Tuple.Get(name) }

// MustGet is shorthand for e.Tuple.MustGet.
func (e *Element) MustGet(name string) Value { return e.Tuple.MustGet(name) }

// Before orders elements by timestamp, breaking ties by arrival sequence.
func (e *Element) Before(o *Element) bool {
	if e.Timestamp != o.Timestamp {
		return e.Timestamp < o.Timestamp
	}
	return e.Seq < o.Seq
}

// String renders the element with its stream name and timestamp.
func (e *Element) String() string {
	return fmt.Sprintf("%s@%s%s", e.Stream, e.Timestamp, e.Tuple)
}

// SortElements sorts a batch in place by (timestamp, seq).
func SortElements(els []*Element) {
	sort.Slice(els, func(i, j int) bool { return els[i].Before(els[j]) })
}
