package server

// Differential tests of the wire codec against the reflective
// encoding/json path it replaced. The oracle types below are that path:
// the six-field wire value struct, the structs that embedded it, and the
// conversion loops of the old handlers and client. The writer must emit
// the oracle's bytes, and the reader must return the oracle's decoded
// values for any equivalent JSON text.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode/utf16"

	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/state"
	"repro/internal/subscribe"
	"repro/internal/temporal"
)

type oracleValue struct {
	Kind   string  `json:"kind"`
	Bool   bool    `json:"bool,omitempty"`
	Int    int64   `json:"int,omitempty"`
	Float  float64 `json:"float,omitempty"`
	String string  `json:"string,omitempty"`
	Time   int64   `json:"time,omitempty"`
}

func toOracle(v element.Value) oracleValue {
	switch v.Kind() {
	case element.KindBool:
		b, _ := v.AsBool()
		return oracleValue{Kind: "bool", Bool: b}
	case element.KindInt:
		i, _ := v.AsInt()
		return oracleValue{Kind: "int", Int: i}
	case element.KindFloat:
		f, _ := v.AsFloat()
		return oracleValue{Kind: "float", Float: f}
	case element.KindString:
		s, _ := v.AsString()
		return oracleValue{Kind: "string", String: s}
	case element.KindTime:
		t, _ := v.AsTime()
		return oracleValue{Kind: "time", Time: int64(t)}
	}
	return oracleValue{Kind: "null"}
}

func (w oracleValue) value() element.Value {
	switch w.Kind {
	case "bool":
		return element.Bool(w.Bool)
	case "int":
		return element.Int(w.Int)
	case "float":
		return element.Float(w.Float)
	case "string":
		return element.String(w.String)
	case "time":
		return element.Time(temporal.Instant(w.Time))
	}
	return element.Null
}

type oracleResponse struct {
	Columns []string        `json:"columns"`
	Rows    [][]oracleValue `json:"rows"`
}

// oracleEncode is the old /query handler's conversion.
func oracleEncode(res *query.Result) *oracleResponse {
	resp := &oracleResponse{Columns: res.Columns}
	for _, row := range res.Rows {
		wr := make([]oracleValue, len(row))
		for i, v := range row {
			wr[i] = toOracle(v)
		}
		resp.Rows = append(resp.Rows, wr)
	}
	return resp
}

// oracleResult is the old Client.Query conversion.
func oracleResult(wire *oracleResponse) *query.Result {
	out := &query.Result{Columns: wire.Columns}
	for _, row := range wire.Rows {
		vals := make([]element.Value, len(row))
		for i, wv := range row {
			vals[i] = wv.value()
		}
		out.Rows = append(out.Rows, vals)
	}
	return out
}

type oracleFact struct {
	Entity     string      `json:"entity"`
	Attribute  string      `json:"attribute"`
	Value      oracleValue `json:"value"`
	Start      int64       `json:"start"`
	End        int64       `json:"end"`
	Recorded   int64       `json:"recorded"`
	Superseded int64       `json:"superseded"`
	Derived    bool        `json:"derived,omitempty"`
	Source     string      `json:"source,omitempty"`
}

type oracleFactResponse struct {
	Found bool        `json:"found"`
	Fact  *oracleFact `json:"fact,omitempty"`
}

type oracleChange struct {
	Kind string     `json:"kind"`
	At   int64      `json:"at"`
	Fact oracleFact `json:"fact"`
}

type oracleElement struct {
	Stream    string                 `json:"stream"`
	Timestamp int64                  `json:"timestamp"`
	Fields    map[string]oracleValue `json:"fields,omitempty"`
}

type oracleDelivery struct {
	Kind      string          `json:"kind"`
	Watermark int64           `json:"watermark"`
	Changes   []oracleChange  `json:"changes,omitempty"`
	Emitted   []oracleElement `json:"emitted,omitempty"`
	Result    *oracleResponse `json:"result,omitempty"`
	Cut       int64           `json:"cut,omitempty"`
	State     []oracleFact    `json:"state,omitempty"`
	Note      string          `json:"note,omitempty"`
}

func toOracleFact(f *element.Fact) oracleFact {
	return oracleFact{
		Entity: f.Entity, Attribute: f.Attribute, Value: toOracle(f.Value),
		Start: int64(f.Validity.Start), End: int64(f.Validity.End),
		Recorded: int64(f.RecordedAt), Superseded: int64(f.BeliefEnd()),
		Derived: f.Derived, Source: f.Source,
	}
}

func fromOracleFact(wf oracleFact) *element.Fact {
	f := element.NewFact(wf.Entity, wf.Attribute, wf.Value.value(),
		temporal.NewInterval(temporal.Instant(wf.Start), temporal.Instant(wf.End)))
	f.Derived = wf.Derived
	f.Source = wf.Source
	if wf.Superseded != 0 {
		f.RecordedAt = temporal.Instant(wf.Recorded)
		f.SupersededAt = temporal.Instant(wf.Superseded)
	}
	return f
}

// toOracleDelivery is the old SSE payload conversion.
func toOracleDelivery(d subscribe.Delivery) oracleDelivery {
	wd := oracleDelivery{
		Kind:      d.Kind.String(),
		Watermark: int64(d.Watermark),
		Cut:       int64(d.Cut),
		Note:      d.Note,
	}
	for _, ch := range d.Changes {
		kind := "asserted"
		if ch.Kind == state.Terminated {
			kind = "terminated"
		}
		wd.Changes = append(wd.Changes, oracleChange{Kind: kind, At: int64(ch.At), Fact: toOracleFact(ch.Fact)})
	}
	for _, el := range d.Emitted {
		we := oracleElement{Stream: el.Stream, Timestamp: int64(el.Timestamp)}
		if el.Tuple != nil && el.Tuple.Schema().Len() > 0 {
			we.Fields = make(map[string]oracleValue, el.Tuple.Schema().Len())
			for i := 0; i < el.Tuple.Schema().Len(); i++ {
				name := el.Tuple.Schema().Field(i).Name
				if v, ok := el.Get(name); ok {
					we.Fields[name] = toOracle(v)
				}
			}
		}
		wd.Emitted = append(wd.Emitted, we)
	}
	if d.Result != nil {
		wd.Result = oracleEncode(d.Result)
	}
	for _, f := range d.State {
		wd.State = append(wd.State, toOracleFact(f))
	}
	return wd
}

// fromOracleDelivery is the old client-side SSE decode.
func fromOracleDelivery(wd oracleDelivery) *Event {
	ev := &Event{
		Kind:      wd.Kind,
		Watermark: temporal.Instant(wd.Watermark),
		Cut:       temporal.Instant(wd.Cut),
	}
	for _, ch := range wd.Changes {
		ev.Changes = append(ev.Changes, EventChange{
			Kind: ch.Kind, At: temporal.Instant(ch.At), Fact: fromOracleFact(ch.Fact),
		})
	}
	for _, el := range wd.Emitted {
		ee := EventElement{Stream: el.Stream, Timestamp: temporal.Instant(el.Timestamp)}
		if len(el.Fields) > 0 {
			ee.Fields = make(map[string]element.Value, len(el.Fields))
			for k, wv := range el.Fields {
				ee.Fields[k] = wv.value()
			}
		}
		ev.Emitted = append(ev.Emitted, ee)
	}
	if wd.Result != nil {
		ev.Result = oracleResult(wd.Result)
	}
	for _, wf := range wd.State {
		ev.State = append(ev.State, fromOracleFact(wf))
	}
	return ev
}

// oracleBytes encodes v as the old handlers did.
func oracleBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// encodeResult is the /query body: the result and a newline.
func encodeResult(res *query.Result) ([]byte, error) {
	b, err := appendResult(nil, res)
	return append(b, '\n'), err
}

var edgeStrings = []string{
	"", "a", "entity", "<script>&amp;</script>", "a\u2028b\u2029c", "a b",
	"\x00\x01\x1f\x7f", "\b\f\n\r\t\"\\/", "\xff", "ok\xc3", "\xed\xa0\x80",
	"h\u00e9llo", "\u65e5\u672c", "\U0001f600", "\ufffd", "\u212a", "\u017f", "'single'",
}

var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99999e-7, 1e21, -1e21, 1e20,
	999999999999999900000, 0.1, 1.0 / 3, 2.5, -2.5, 100, 1e100, 1e-300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789.123, 5e-324,
	float64(1 << 53), 0.000001234, 12345678901234567890,
}

func randString(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return edgeStrings[rng.Intn(len(edgeStrings))]
	}
	const pool = "abcXYZ019 <>&\"\\/\n\t\x00\x7f"
	b := make([]byte, rng.Intn(12))
	for i := range b {
		if rng.Intn(6) == 0 {
			b[i] = byte(rng.Intn(256))
		} else {
			b[i] = pool[rng.Intn(len(pool))]
		}
	}
	if rng.Intn(4) == 0 {
		b = append(b, "\u00e9\U0001f600\u2028"...)
	}
	return string(b)
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(3) {
	case 0:
		return edgeFloats[rng.Intn(len(edgeFloats))]
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
	}
}

func randInt(rng *rand.Rand) int64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return []int64{1, -1, math.MaxInt64, math.MinInt64}[rng.Intn(4)]
	}
	return int64(rng.Uint64())
}

func randValue(rng *rand.Rand) element.Value {
	switch rng.Intn(6) {
	case 0:
		return element.Null
	case 1:
		return element.Bool(rng.Intn(2) == 0)
	case 2:
		return element.Int(randInt(rng))
	case 3:
		return element.Float(randFloat(rng))
	case 4:
		return element.String(randString(rng))
	}
	return element.Time(temporal.Instant(randInt(rng)))
}

func randResult(rng *rand.Rand) *query.Result {
	res := &query.Result{}
	switch rng.Intn(8) {
	case 0: // nil columns
	case 1:
		res.Columns = []string{}
	default:
		for i := rng.Intn(4) + 1; i > 0; i-- {
			res.Columns = append(res.Columns, randString(rng))
		}
	}
	switch rng.Intn(8) {
	case 0: // nil rows
	case 1:
		res.Rows = [][]element.Value{}
	default:
		width := rng.Intn(4)
		for i := rng.Intn(8) + 1; i > 0; i-- {
			switch rng.Intn(10) {
			case 0:
				res.Rows = append(res.Rows, nil)
			case 1:
				res.Rows = append(res.Rows, []element.Value{})
			default:
				row := make([]element.Value, width)
				for j := range row {
					row[j] = randValue(rng)
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res
}

// edgeResults are the fixed cases: every edge value in a row of its own,
// and the nil, empty and zero-column shapes.
func edgeResults() []*query.Result {
	out := []*query.Result{
		{},
		{Columns: []string{}, Rows: [][]element.Value{}},
		{Columns: []string{"a"}, Rows: [][]element.Value{nil, {}}},
		{Columns: []string{"v"}, Rows: [][]element.Value{
			{element.Null}, {element.Bool(false)}, {element.Bool(true)},
			{element.Int(0)}, {element.Int(math.MinInt64)}, {element.Int(math.MaxInt64)},
			{element.Time(0)}, {element.Time(-5)}, {element.String("")},
		}},
	}
	var floats, strs [][]element.Value
	for _, f := range edgeFloats {
		floats = append(floats, []element.Value{element.Float(f), element.Float(-f)})
	}
	for _, s := range edgeStrings {
		strs = append(strs, []element.Value{element.String(s)})
	}
	return append(out,
		&query.Result{Columns: []string{"f", "-f"}, Rows: floats},
		&query.Result{Columns: edgeStrings, Rows: strs})
}

// wireForms returns raw and equivalent JSON texts of it: indented, with
// every object's keys reversed (and, with inject, unknown and
// case-folded members added ahead of them), and with every string
// spelled in \u escapes.
func wireForms(t *testing.T, raw []byte, inject bool) map[string][]byte {
	t.Helper()
	forms := map[string][]byte{"raw": raw}
	var ind bytes.Buffer
	if err := json.Indent(&ind, raw, " ", "\t"); err != nil {
		t.Fatalf("indent %s: %v", raw, err)
	}
	forms["indented"] = ind.Bytes()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	var perm bytes.Buffer
	emitPermuted(&perm, tree, inject)
	forms["permuted"] = perm.Bytes()
	forms["escaped"] = escapeStrings(raw)
	forms["permuted+escaped"] = escapeStrings(perm.Bytes())
	return forms
}

func emitPermuted(b *bytes.Buffer, v any, inject bool) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Sort(sort.Reverse(sort.StringSlice(keys)))
		b.WriteString("{ ")
		if inject {
			// Unknown members are skipped; a null for a known member (its
			// key in another case) leaves it unset, and the real member
			// follows anyway.
			b.WriteString(`"zUnknown": {"a": [1, -2.5e3, "x\"}]", true, false, null, {}], "b": {"c": []}}, `)
			b.WriteString(`"KIND": null, "Rows": null, "cOLUMNS": null, "FlOaT": null, `)
		}
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ,\n")
			}
			kb, _ := json.Marshal(k)
			b.Write(kb)
			b.WriteString(" : ")
			emitPermuted(b, x[k], inject)
		}
		b.WriteString("\r}")
	case []any:
		b.WriteString("[ ")
		for i, e := range x {
			if i > 0 {
				b.WriteString(", ")
			}
			emitPermuted(b, e, inject)
		}
		b.WriteString(" ]")
	default:
		vb, _ := json.Marshal(x)
		b.Write(vb)
	}
}

// escapeStrings respells every string token of valid JSON: '/' as \/,
// runes beyond the BMP as surrogate-pair escapes, and every other rune
// as a \u escape in alternating hex case.
func escapeStrings(raw []byte) []byte {
	var b bytes.Buffer
	for i := 0; i < len(raw); {
		if raw[i] != '"' {
			b.WriteByte(raw[i])
			i++
			continue
		}
		j := i + 1
		for raw[j] != '"' {
			if raw[j] == '\\' {
				j++
			}
			j++
		}
		var s string
		if err := json.Unmarshal(raw[i:j+1], &s); err != nil {
			panic(err)
		}
		b.WriteByte('"')
		n := 0
		for _, r := range s {
			switch {
			case r == '/':
				b.WriteString(`\/`)
			case r > 0xFFFF:
				r1, r2 := utf16.EncodeRune(r)
				fmt.Fprintf(&b, `\u%04X\u%04x`, r1, r2)
			case n%2 == 0:
				fmt.Fprintf(&b, `\u%04x`, r)
			default:
				fmt.Fprintf(&b, `\u%04X`, r)
			}
			n++
		}
		b.WriteByte('"')
		i = j + 1
	}
	return b.Bytes()
}

// TestQueryWireMatchesOracle: for random and edge results the writer's
// bytes equal the reflective encoder's, and every equivalent form of
// those bytes parses to the values the reflective decoder returns.
func TestQueryWireMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	results := edgeResults()
	for i := 0; i < 400; i++ {
		results = append(results, randResult(rng))
	}
	for i, res := range results {
		want, err := oracleBytes(oracleEncode(res))
		if err != nil {
			t.Fatalf("result %d: oracle: %v", i, err)
		}
		got, err := encodeResult(res)
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("result %d: writer\n%s\noracle\n%s", i, got, want)
		}
		for name, form := range wireForms(t, want, true) {
			var wire oracleResponse
			if err := json.Unmarshal(form, &wire); err != nil {
				t.Fatalf("result %d %s: oracle decode: %v\n%s", i, name, err, form)
			}
			got, err := parseResult(form)
			if err != nil {
				t.Fatalf("result %d %s: %v\n%s", i, name, err, form)
			}
			if want := oracleResult(&wire); !reflect.DeepEqual(got, want) {
				t.Fatalf("result %d %s: reader %#v\noracle %#v\n%s", i, name, got, want, form)
			}
		}
	}
}

// TestQueryWireFoldedKeys: keys match their fields as encoding/json
// matches them, case-insensitively under Unicode folding, with the last
// duplicate winning.
func TestQueryWireFoldedKeys(t *testing.T) {
	for _, body := range []string{
		`{"COLUMNS":["x"],"Rows":[[{"KIND":"int","Int":7}]]}`,
		`{"columns":["x"],"rows":[[{"\u212aind":"string","\u017ftring":"k"}]]}`,
		`{"columns":["x"],"rows":[[{"kind":"float","float":1,"float":2,"FLOAT":null}]]}`,
		`{"rows":[[{"kind":"bool","bool":true}]],"rows":null,"rows":[[{"kind":"time","time":-3}],null]}`,
		`{"columns":[null,"b"],"rows":[[{"kind":"nosuch","int":1},{"kind":"int","int":-0}]]}`,
		`null`,
	} {
		var wire oracleResponse
		if err := json.Unmarshal([]byte(body), &wire); err != nil {
			t.Fatalf("%s: oracle: %v", body, err)
		}
		got, err := parseResult([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if want := oracleResult(&wire); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reader %#v, oracle %#v", body, got, want)
		}
	}
}

// TestQueryWireRejects: malformed or mistyped input is an error, as it
// is for encoding/json, never a panic or a silent partial result.
func TestQueryWireRejects(t *testing.T) {
	for _, body := range []string{
		``, ` `, `{`, `[]`, `5`, `{"columns":["a"]`, `{"columns":"a"}`, `{"rows":{}}`,
		`{"rows":[[5]]}`, `{"rows":[[{"kind":5}]]}`, `{"rows":[[{"kind":"int","int":1.5}]]}`,
		`{"rows":[[{"kind":"int","int":99999999999999999999}]]}`,
		`{"rows":[[{"kind":"float","float":1e400}]]}`, `{"rows":[[{"kind":"bool","bool":1}]]}`,
		`{"rows":[[{"kind":"float","float":01}]]}`, `{"rows":[[{"kind":"float","float":-}]]}`,
		`{"rows":[[{"kind":"float","float":1.}]]}`, `{"rows":[[{"kind":"float","float":.5}]]}`,
		`{"rows":[[{"kind":"string","string":"a` + "\x01" + `"}]]}`, `{"columns":["\x"]}`,
		`{"columns":["\u12"]}`, `{"a":tru}`, `{"a":nul}`, `{"a":[1,]}`, `{"a":1,}`,
		`{"columns":[]} x`, `{"columns":[]}{}`, `{"a" 1}`, `{a:1}`,
		`{"z":` + strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1) + `}`,
	} {
		if _, err := parseResult([]byte(body)); err == nil {
			t.Errorf("%q: accepted", body)
		}
		var wire oracleResponse
		if err := json.Unmarshal([]byte(body), &wire); err == nil {
			t.Errorf("%q: the oracle accepts it", body)
		}
	}
}

// TestQueryWireUnsupportedFloats: NaN and ±Inf have no JSON form; /query
// and /fact answer 500 with encoding/json's error text, as before.
func TestQueryWireUnsupportedFloats(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		st := state.NewStore()
		if err := st.Replace("e", "a", element.Float(f), 10); err != nil {
			t.Fatal(err)
		}
		s := New(st, nil)
		_, qerr := oracleBytes(oracleEncode(&query.Result{Rows: [][]element.Value{{element.Float(f)}}}))
		_, ferr := oracleBytes(oracleFactResponse{Found: true, Fact: &oracleFact{Value: toOracle(element.Float(f))}})
		if qerr == nil || ferr == nil {
			t.Fatalf("%v: the oracle encodes it", f)
		}
		for _, tc := range []struct {
			req  *http.Request
			want string
		}{
			{httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"query":"SELECT value FROM a"}`)), qerr.Error()},
			{httptest.NewRequest(http.MethodGet, "/fact?entity=e&attr=a", nil), ferr.Error()},
		} {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, tc.req)
			if rec.Code != http.StatusInternalServerError || rec.Body.String() != tc.want+"\n" {
				t.Errorf("%v %s: %d %q, want 500 %q", f, tc.req.URL, rec.Code, rec.Body.String(), tc.want)
			}
		}
	}
}

func randFact(rng *rand.Rand) *element.Fact {
	f := element.NewFact(randString(rng), randString(rng), randValue(rng),
		temporal.NewInterval(temporal.Instant(randInt(rng)), temporal.Instant(randInt(rng))))
	f.RecordedAt = temporal.Instant(randInt(rng))
	if rng.Intn(2) == 0 {
		f.SupersededAt = temporal.Instant(randInt(rng))
	}
	f.Derived = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		f.Source = randString(rng)
	}
	return f
}

var fieldSchema = element.NewSchema(
	element.Field{Name: "sensor", Kind: element.KindString},
	element.Field{Name: "a<b", Kind: element.KindFloat},
	element.Field{Name: "\u2029", Kind: element.KindInt},
	element.Field{Name: "kind", Kind: element.KindBool},
)

func randDelivery(rng *rand.Rand) subscribe.Delivery {
	d := subscribe.Delivery{
		Kind:      subscribe.Kind(rng.Intn(3)),
		Watermark: temporal.Instant(randInt(rng)),
		Cut:       temporal.Instant(randInt(rng)),
	}
	if rng.Intn(2) == 0 {
		d.Note = randString(rng)
	}
	for i := rng.Intn(3); i > 0; i-- {
		d.Changes = append(d.Changes, state.Change{
			Kind: state.ChangeKind(rng.Intn(2)), Fact: randFact(rng), At: temporal.Instant(randInt(rng)),
		})
	}
	for i := rng.Intn(3); i > 0; i-- {
		var tuple *element.Tuple
		switch rng.Intn(3) {
		case 0:
			tuple = element.NewTuple(element.NewSchema())
		case 1:
			tuple = element.NewTuple(fieldSchema, element.String(randString(rng)),
				element.Float(randFloat(rng)), element.Int(randInt(rng)), element.Bool(rng.Intn(2) == 0))
		}
		d.Emitted = append(d.Emitted, element.New(randString(rng), temporal.Instant(randInt(rng)), tuple))
	}
	if rng.Intn(2) == 0 {
		d.Result = randResult(rng)
	}
	for i := rng.Intn(3); i > 0; i-- {
		d.State = append(d.State, randFact(rng))
	}
	return d
}

// TestFactAndDeliveryWireMatchOracle: /fact and SSE payloads, which
// reach the codec through MarshalJSON/UnmarshalJSON, keep the reflective
// path's bytes and decode to its values.
func TestFactAndDeliveryWireMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		f := randFact(rng)
		resp, oresp := factResponse{Found: i%4 != 0}, oracleFactResponse{Found: i%4 != 0}
		if resp.Found {
			wf, of := toWireFact(f), toOracleFact(f)
			resp.Fact, oresp.Fact = &wf, &of
		}
		got, err := oracleBytes(resp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleBytes(oresp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fact %d: codec\n%s\noracle\n%s", i, got, want)
		}
		for name, form := range wireForms(t, want, false) {
			var fr factResponse
			var ofr oracleFactResponse
			if err := json.Unmarshal(form, &fr); err != nil {
				t.Fatalf("fact %d %s: %v\n%s", i, name, err, form)
			}
			if err := json.Unmarshal(form, &ofr); err != nil {
				t.Fatal(err)
			}
			if fr.Found != ofr.Found || (fr.Fact == nil) != (ofr.Fact == nil) ||
				fr.Fact != nil && !reflect.DeepEqual(fromWireFact(*fr.Fact), fromOracleFact(*ofr.Fact)) {
				t.Fatalf("fact %d %s: codec %+v, oracle %+v", i, name, fr.Fact, ofr.Fact)
			}
		}

		d := randDelivery(rng)
		got, err = json.Marshal(toWireDelivery(d))
		if err != nil {
			t.Fatal(err)
		}
		want, err = json.Marshal(toOracleDelivery(d))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("delivery %d: codec\n%s\noracle\n%s", i, got, want)
		}
		for name, form := range wireForms(t, want, false) {
			var wd wireDelivery
			var owd oracleDelivery
			if err := json.Unmarshal(form, &wd); err != nil {
				t.Fatalf("delivery %d %s: %v\n%s", i, name, err, form)
			}
			if err := json.Unmarshal(form, &owd); err != nil {
				t.Fatal(err)
			}
			if got, want := fromWireDelivery(wd), fromOracleDelivery(owd); !reflect.DeepEqual(got, want) {
				t.Fatalf("delivery %d %s: codec %+v\noracle %+v\n%s", i, name, got, want, form)
			}
		}
	}
}

// TestQueryWireAllocBudget pins the codec's allocations on a 1,000-row,
// two-column result, the way plan_test pins prepared execution. Encoding
// into a pooled buffer allocates nothing in steady state; parsing
// allocates the result, its column slice and names, one string holding
// every string value, one backing array and the row headers. The
// reflective path allocates per row and per cell, far past either
// budget.
func TestQueryWireAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	res := &query.Result{Columns: []string{"entity", "value"}}
	for i := 0; i < 1000; i++ {
		res.Rows = append(res.Rows, []element.Value{
			element.String(fmt.Sprintf("s%06d", i)), element.Float(float64(i)*1.25 + 0.1),
		})
	}
	body, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	encode := testing.AllocsPerRun(50, func() {
		bp := getBuf()
		b, err := appendResult((*bp)[:0], res)
		if err != nil {
			t.Fatal(err)
		}
		*bp = b
		putBuf(bp)
	})
	parse := testing.AllocsPerRun(50, func() {
		if _, err := parseResult(body); err != nil {
			t.Fatal(err)
		}
	})
	reflectEncode := testing.AllocsPerRun(5, func() {
		if err := json.NewEncoder(io.Discard).Encode(oracleEncode(res)); err != nil {
			t.Fatal(err)
		}
	})
	reflectParse := testing.AllocsPerRun(5, func() {
		var wire oracleResponse
		if err := json.Unmarshal(body, &wire); err != nil {
			t.Fatal(err)
		}
		oracleResult(&wire)
	})
	const encodeBudget, parseBudget = 2, 10
	t.Logf("allocs/op: encode %.0f (reflective %.0f), parse %.0f (reflective %.0f)",
		encode, reflectEncode, parse, reflectParse)
	if encode > encodeBudget {
		t.Errorf("encode allocates %.0f/op, budget %d", encode, encodeBudget)
	}
	if parse > parseBudget {
		t.Errorf("parse allocates %.0f/op, budget %d", parse, parseBudget)
	}
	if reflectEncode <= encodeBudget || reflectParse <= parseBudget {
		t.Errorf("the reflective path meets the budgets (encode %.0f, parse %.0f): they pin nothing",
			reflectEncode, reflectParse)
	}
}

// FuzzQueryWire feeds the reader arbitrary bytes, starting from the
// checked-in corpus and the oracle's encodings of the edge results. The
// reader never panics; a result it accepts re-encodes and re-parses to
// itself; and whatever the reflective decoder accepts, the reader
// accepts and decodes to the same values.
func FuzzQueryWire(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, res := range append(edgeResults(), randResult(rng), randResult(rng), randResult(rng)) {
		b, err := oracleBytes(oracleEncode(res))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := parseResult(data)
		var wire oracleResponse
		if oerr := json.Unmarshal(data, &wire); oerr == nil {
			if err != nil {
				t.Fatalf("the oracle accepts %q, the reader fails: %v", data, err)
			}
			if want := oracleResult(&wire); !reflect.DeepEqual(res, want) {
				t.Fatalf("%q: reader %#v, oracle %#v", data, res, want)
			}
		}
		if err != nil {
			return
		}
		b, err := appendResult(nil, res)
		if err != nil {
			t.Fatalf("%q parsed to %#v, which does not encode: %v", data, res, err)
		}
		again, err := parseResult(b)
		if err != nil || !reflect.DeepEqual(again, res) {
			t.Fatalf("%q: re-encoded as %s, re-parsed to %#v (%v), want %#v", data, b, again, err, res)
		}
	})
}
