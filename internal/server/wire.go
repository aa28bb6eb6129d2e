// Wire codec for values and query results. One hand-written writer
// emits exactly the bytes encoding/json produces for these shapes — key
// order, omitted zero payloads, float formatting, HTML and U+2028/2029
// escaping — and one single-pass reader parses them back without
// reflection. Query results are the hot path: /query encodes a
// query.Result straight into a pooled buffer, and Client.Query parses the
// body into rows that share one backing []element.Value. The /fact and
// SSE payloads embed the codec through MarshalJSON/UnmarshalJSON on
// wireValue, wireFields and wireResult, so every value on the wire takes
// the same path.
//
// A value is {"kind":K} plus, when its payload is not the zero value,
// one member named after the kind: {"kind":"float","float":2.5}. A
// result is {"columns":[...],"rows":[[value,...],...]}, with "rows"
// null when there are none.

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/temporal"
)

// maxPooledBuf caps what the pools keep: a buffer or scratch that grew
// past it for one huge result is dropped rather than pinned for the life
// of the process.
const maxPooledBuf = 4 << 20

// bufPool recycles /query encode buffers and Client.Query body buffers.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(p *[]byte) {
	if cap(*p) > maxPooledBuf {
		return
	}
	*p = (*p)[:0]
	bufPool.Put(p)
}

// readBody reads r to EOF into b[:0]. A known size sizes b once; a
// larger body than the pool keeps grows as io.ReadAll would.
func readBody(b []byte, r io.Reader, size int64) ([]byte, error) {
	b = b[:0]
	// One spare byte lets the final read report EOF without growing b.
	if n := size + 1; size > 0 && n <= maxPooledBuf && int64(cap(b)) < n {
		b = make([]byte, 0, n)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// appendResult appends the wire form of res.
func appendResult(b []byte, res *query.Result) ([]byte, error) {
	b = append(b, `{"columns":`...)
	if res.Columns == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, c := range res.Columns {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, c)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":`...)
	if len(res.Rows) == 0 {
		return append(b, "null}"...), nil
	}
	b = append(b, '[')
	for i, row := range res.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendValue(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// appendValue appends the wire form of v. NaN and ±Inf have none; the
// error reads as encoding/json's own.
func appendValue(b []byte, v element.Value) ([]byte, error) {
	switch v.Kind() {
	case element.KindBool:
		b = append(b, `{"kind":"bool"`...)
		if x, _ := v.AsBool(); x {
			b = append(b, `,"bool":true`...)
		}
	case element.KindInt:
		b = append(b, `{"kind":"int"`...)
		if x, _ := v.AsInt(); x != 0 {
			b = append(b, `,"int":`...)
			b = strconv.AppendInt(b, x, 10)
		}
	case element.KindFloat:
		f, _ := v.AsFloat()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		b = append(b, `{"kind":"float"`...)
		if f != 0 {
			b = append(b, `,"float":`...)
			b = appendFloat(b, f)
		}
	case element.KindString:
		b = append(b, `{"kind":"string"`...)
		if s, _ := v.AsString(); s != "" {
			b = append(b, `,"string":`...)
			b = appendString(b, s)
		}
	case element.KindTime:
		b = append(b, `{"kind":"time"`...)
		if t, _ := v.AsTime(); t != 0 {
			b = append(b, `,"time":`...)
			b = strconv.AppendInt(b, int64(t), 10)
		}
	default:
		b = append(b, `{"kind":"null"`...)
	}
	return append(b, '}'), nil
}

// appendFloat formats f as encoding/json does: ES6 number-to-string,
// which switches to exponent form below 1e-6 and from 1e21, and writes a
// one-digit negative exponent without its padding zero (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json writes
// it with HTML escaping on: <, > and & become \u003c, \u003e and
// \u0026, U+2028 and U+2029 are escaped, and each invalid UTF-8 byte
// becomes \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// reader is a single-pass reader over one wire payload. It accepts what
// encoding/json accepts for the wire shapes: members in any order,
// whitespace, string escapes, unknown members (skipped), keys matched
// case-insensitively, and null for any member, which leaves it unset.
// Nothing it returns aliases the payload, so the payload's buffer can be
// reused. Object keys are compared in a scratch buffer and never become
// strings, and a value's string goes to the arena until the result is
// built.
type reader struct {
	b     []byte
	i     int
	key   []byte // the current object key, unescaped
	tmp   []byte // scratch for an escaped "kind"
	arena []byte // the decoded contents of string values, back to back
	// cells and ends collect a result's rows while it is parsed: every
	// cell in order, and the cell count at the end of each row.
	cells []cell
	ends  []int
}

// cell is one decoded value held without pointers, so the pooled
// scratch that collects a result costs the garbage collector nothing.
// A string's contents are the span [s, e) of the reader's arena.
type cell struct {
	kind element.Kind
	n    int64 // bool (0 or 1), int or time
	f    float64
	s, e int
}

// value builds the element.Value; arena holds the cell's string span.
func (c cell) value(arena string) element.Value {
	switch c.kind {
	case element.KindBool:
		return element.Bool(c.n != 0)
	case element.KindInt:
		return element.Int(c.n)
	case element.KindFloat:
		return element.Float(c.f)
	case element.KindString:
		return element.String(arena[c.s:c.e])
	case element.KindTime:
		return element.Time(temporal.Instant(c.n))
	}
	return element.Null
}

var readerPool = sync.Pool{New: func() any { return new(reader) }}

// maxDepth bounds the nesting of skipped members, as encoding/json
// bounds a whole document.
const maxDepth = 10000

// parseResult parses a complete wire result. Its rows share one backing
// array, and its string values share one string.
func parseResult(src []byte) (*query.Result, error) {
	r := readerPool.Get().(*reader)
	r.b, r.i = src, 0
	res, err := r.result()
	if err == nil {
		err = r.end()
	}
	r.b = nil
	if cap(r.cells) <= maxPooledBuf/40 && cap(r.arena) <= maxPooledBuf { // a cell is 40 bytes
		readerPool.Put(r)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func (r *reader) fail(what string) error {
	return fmt.Errorf("wire: %s at offset %d", what, r.i)
}

func (r *reader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// eat consumes c, after any whitespace, if it comes next.
func (r *reader) eat(c byte) bool {
	r.ws()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// literal consumes lit, after any whitespace, if it comes next.
func (r *reader) literal(lit string) bool {
	r.ws()
	if len(r.b)-r.i >= len(lit) && string(r.b[r.i:r.i+len(lit)]) == lit {
		r.i += len(lit)
		return true
	}
	return false
}

func (r *reader) null() bool { return r.literal("null") }

// end requires that only whitespace remains.
func (r *reader) end() error {
	r.ws()
	if r.i != len(r.b) {
		return r.fail("trailing data")
	}
	return nil
}

// object parses one object, calling member with each key while r sits
// at that member's value, which member must consume. The key is valid
// only until member starts parsing the value.
func (r *reader) object(member func(key []byte) error) error {
	if !r.eat('{') {
		return r.fail("expected object")
	}
	if r.eat('}') {
		return nil
	}
	for {
		raw, clean, err := r.scanString()
		if err != nil {
			return err
		}
		r.key = appendContent(r.key[:0], raw, clean)
		if !r.eat(':') {
			return r.fail("expected ':'")
		}
		if err := member(r.key); err != nil {
			return err
		}
		if r.eat(',') {
			continue
		}
		if r.eat('}') {
			return nil
		}
		return r.fail("expected ',' or '}'")
	}
}

// array parses one array, calling elem while r sits at each element.
func (r *reader) array(elem func() error) error {
	if !r.eat('[') {
		return r.fail("expected array")
	}
	if r.eat(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if r.eat(',') {
			continue
		}
		if r.eat(']') {
			return nil
		}
		return r.fail("expected ',' or ']'")
	}
}

// scanString consumes one string and returns its raw content between
// the quotes. clean reports that the content has no escape and no
// invalid UTF-8, so it is already the decoded string.
func (r *reader) scanString() (raw []byte, clean bool, err error) {
	if !r.eat('"') {
		return nil, false, r.fail("expected string")
	}
	start, clean := r.i, true
	for r.i < len(r.b) {
		switch c := r.b[r.i]; {
		case c == '"':
			raw = r.b[start:r.i]
			r.i++
			return raw, clean, nil
		case c == '\\':
			clean = false
			if r.i+1 >= len(r.b) {
				return nil, false, r.fail("unterminated string")
			}
			switch r.b[r.i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				r.i += 2
			case 'u':
				if r.i+6 > len(r.b) || hex4(r.b[r.i+2:r.i+6]) < 0 {
					return nil, false, r.fail(`bad \u escape`)
				}
				r.i += 6
			default:
				return nil, false, r.fail("bad escape")
			}
		case c < ' ':
			return nil, false, r.fail("control character in string")
		case c < utf8.RuneSelf:
			r.i++
		default:
			rr, size := utf8.DecodeRune(r.b[r.i:])
			if rr == utf8.RuneError && size == 1 {
				clean = false
			}
			r.i += size
		}
	}
	return nil, false, r.fail("unterminated string")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	var n rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		n = n<<4 | rune(c)
	}
	return n
}

// appendContent appends the decoded form of string content scanString
// accepted, as encoding/json decodes it: a surrogate pair joins, and an
// unpaired surrogate or an invalid UTF-8 byte becomes U+FFFD.
func appendContent(b, raw []byte, clean bool) []byte {
	if clean {
		return append(b, raw...)
	}
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			e := raw[i+1]
			i += 2
			switch e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(raw[i:])
				i += 4
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						rr1 = hex4(raw[i+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
			default: // '"', '\\' and '/' stand for themselves
				b = append(b, e)
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(raw[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	return b
}

// number consumes one JSON number and returns its text.
func (r *reader) number() ([]byte, error) {
	r.ws()
	b, i := r.b, r.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, r.fail("expected number")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, r.fail("bad number")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, r.fail("bad number")
		}
	}
	lit := b[r.i:i]
	r.i = i
	return lit, nil
}

// skip consumes one value of any shape: an unknown member.
func (r *reader) skip(depth int) error {
	r.ws()
	if r.i >= len(r.b) {
		return r.fail("unexpected end")
	}
	switch r.b[r.i] {
	case '{', '[':
		if depth >= maxDepth {
			return r.fail("nesting too deep")
		}
		if r.b[r.i] == '{' {
			return r.object(func([]byte) error { return r.skip(depth + 1) })
		}
		return r.array(func() error { return r.skip(depth + 1) })
	case '"':
		_, _, err := r.scanString()
		return err
	case 't', 'f', 'n':
		if r.literal("true") || r.literal("false") || r.null() {
			return nil
		}
		return r.fail("bad literal")
	}
	_, err := r.number()
	return err
}

// The member parsers below leave their target unset on null, as
// encoding/json does.

// arenaMember parses a string into the arena and sets [*s, *e) to its
// span there.
func (r *reader) arenaMember(s, e *int) error {
	if r.null() {
		return nil
	}
	raw, clean, err := r.scanString()
	if err != nil {
		return err
	}
	*s = len(r.arena)
	r.arena = appendContent(r.arena, raw, clean)
	*e = len(r.arena)
	return nil
}

func (r *reader) kindMember(dst *element.Kind) error {
	if r.null() {
		return nil
	}
	raw, clean, err := r.scanString()
	if err != nil {
		return err
	}
	r.tmp = appendContent(r.tmp[:0], raw, clean)
	*dst = element.KindNull
	for k := element.KindBool; k <= element.KindTime; k++ {
		if string(r.tmp) == k.String() {
			*dst = k
		}
	}
	return nil
}

func (r *reader) boolMember(dst *bool) error {
	switch {
	case r.literal("true"):
		*dst = true
	case r.literal("false"):
		*dst = false
	case !r.null():
		return r.fail("expected bool")
	}
	return nil
}

func (r *reader) intMember(dst *int64) error {
	if r.null() {
		return nil
	}
	lit, err := r.number()
	if err != nil {
		return err
	}
	if *dst, err = strconv.ParseInt(string(lit), 10, 64); err != nil {
		return r.fail("bad int " + string(lit))
	}
	return nil
}

func (r *reader) floatMember(dst *float64) error {
	if r.null() {
		return nil
	}
	lit, err := r.number()
	if err != nil {
		return err
	}
	if *dst, err = strconv.ParseFloat(string(lit), 64); err != nil {
		return r.fail("bad float " + string(lit))
	}
	return nil
}

// member returns the index in names of the field key selects, or -1.
// Like encoding/json it prefers an exact match and otherwise folds case,
// Unicode included, so "KIND" and "\u212aind" (Kelvin sign) name "kind".
func member(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if foldsTo(key, n) {
			return i
		}
	}
	return -1
}

// foldsTo reports whether key folds to the lowercase ASCII name the way
// encoding/json folds keys: each rune through ToUpper(ToLower(r)).
func foldsTo(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); {
		r, size := rune(key[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(key[i:])
		}
		i += size
		if j >= len(name) || unicode.ToUpper(unicode.ToLower(r)) != unicode.ToUpper(rune(name[j])) {
			return false
		}
		j++
	}
	return j == len(name)
}

var valueMembers = []string{"kind", "bool", "int", "float", "string", "time"}

// value parses one wire value, or null. A string's contents go to the
// arena.
func (r *reader) value() (cell, error) {
	if r.null() {
		return cell{}, nil
	}
	var (
		c    cell
		b    bool
		n, t int64
	)
	err := r.object(func(key []byte) error {
		switch member(key, valueMembers) {
		case 0:
			return r.kindMember(&c.kind)
		case 1:
			return r.boolMember(&b)
		case 2:
			return r.intMember(&n)
		case 3:
			return r.floatMember(&c.f)
		case 4:
			return r.arenaMember(&c.s, &c.e)
		case 5:
			return r.intMember(&t)
		}
		return r.skip(0)
	})
	switch c.kind {
	case element.KindBool:
		if b {
			c.n = 1
		}
	case element.KindInt:
		c.n = n
	case element.KindTime:
		c.n = t
	}
	return c, err
}

var resultMembers = []string{"columns", "rows"}

// result parses one wire result, or null. No rows, whether absent, null
// or [], leave Rows nil; every row present is non-nil, an empty one
// included.
func (r *reader) result() (*query.Result, error) {
	res := &query.Result{}
	r.arena, r.cells, r.ends = r.arena[:0], r.cells[:0], r.ends[:0]
	if r.null() {
		return res, nil
	}
	err := r.object(func(key []byte) error {
		switch member(key, resultMembers) {
		case 0:
			return r.columns(&res.Columns)
		case 1:
			return r.rows()
		}
		return r.skip(0)
	})
	if err != nil {
		return nil, err
	}
	if len(r.ends) > 0 {
		arena := string(r.arena) // one allocation for every string value
		backing := make([]element.Value, len(r.cells))
		for i, c := range r.cells {
			backing[i] = c.value(arena)
		}
		res.Rows = make([][]element.Value, len(r.ends))
		start := 0
		for i, end := range r.ends {
			res.Rows[i] = backing[start:end:end]
			start = end
		}
	}
	return res, nil
}

func (r *reader) columns(dst *[]string) error {
	if r.null() {
		*dst = nil
		return nil
	}
	cols := make([]string, 0, 4)
	err := r.array(func() error {
		var c cell
		mark := len(r.arena)
		err := r.arenaMember(&c.s, &c.e)
		cols = append(cols, string(r.arena[c.s:c.e]))
		r.arena = r.arena[:mark]
		return err
	})
	*dst = cols
	return err
}

func (r *reader) rows() error {
	r.arena, r.cells, r.ends = r.arena[:0], r.cells[:0], r.ends[:0]
	if r.null() {
		return nil
	}
	return r.array(func() error {
		if !r.null() {
			err := r.array(func() error {
				c, err := r.value()
				r.cells = append(r.cells, c)
				return err
			})
			if err != nil {
				return err
			}
		}
		r.ends = append(r.ends, len(r.cells))
		return nil
	})
}

// wireValue puts one element.Value on the wire through the codec.
type wireValue element.Value

// MarshalJSON implements json.Marshaler.
func (v wireValue) MarshalJSON() ([]byte, error) { return appendValue(nil, element.Value(v)) }

// UnmarshalJSON implements json.Unmarshaler; null leaves v unchanged.
func (v *wireValue) UnmarshalJSON(data []byte) error {
	r := reader{b: data}
	if r.null() {
		return r.end()
	}
	c, err := r.value()
	if err == nil {
		err = r.end()
	}
	if err != nil {
		return err
	}
	*v = wireValue(c.value(string(r.arena)))
	return nil
}

// wireResult puts a query result on the wire through the codec.
type wireResult query.Result

// MarshalJSON implements json.Marshaler.
func (w *wireResult) MarshalJSON() ([]byte, error) {
	return appendResult(nil, (*query.Result)(w))
}

// UnmarshalJSON implements json.Unmarshaler.
func (w *wireResult) UnmarshalJSON(data []byte) error {
	res, err := parseResult(data)
	if err != nil {
		return err
	}
	*w = wireResult(*res)
	return nil
}

// wireFields puts an emitted element's named values on the wire as one
// object, keys sorted as encoding/json sorts map keys.
type wireFields map[string]element.Value

// MarshalJSON implements json.Marshaler.
func (m wireFields) MarshalJSON() ([]byte, error) {
	if m == nil {
		return []byte("null"), nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := []byte{'{'}
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendString(b, k), ':')
		var err error
		if b, err = appendValue(b, m[k]); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// UnmarshalJSON implements json.Unmarshaler. An empty object decodes to
// a nil map, and null leaves m unchanged.
func (m *wireFields) UnmarshalJSON(data []byte) error {
	r := reader{b: data}
	if r.null() {
		return r.end()
	}
	var out wireFields
	err := r.object(func(key []byte) error {
		name := string(key)
		r.arena = r.arena[:0]
		c, err := r.value()
		if out == nil {
			out = make(wireFields)
		}
		out[name] = c.value(string(r.arena))
		return err
	})
	if err == nil {
		err = r.end()
	}
	if err != nil {
		return err
	}
	*m = out
	return nil
}
