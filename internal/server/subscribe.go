// Subscription endpoint: the push half of the interoperability surface.
// GET /subscribe streams deliveries as Server-Sent Events, taking the
// subscription filter from query parameters:
//
//	entity, attr     restrict state-change deliveries
//	stream           restricts emitted-element deliveries
//	changes, emitted explicit bool opt-ins (implied by the above)
//	query            a continuous SELECT re-evaluated per watermark
//	queue            per-client send-queue bound (default 256)
//	cursor           last-seen watermark for reconnecting clients
//
// SSE events carry the watermark in the `id:` field, so a reconnecting
// EventSource resumes via the standard Last-Event-ID header; a cursor
// behind the broker's cut yields one `resync` event (a snapshot-pinned
// catch-up at an explicit cut) before deltas resume. Malformed
// parameters are a 400; a failing continuous query is a 400 before the
// stream starts.

package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/element"
	"repro/internal/state"
	"repro/internal/subscribe"
	"repro/internal/temporal"
)

// wireChange is the JSON encoding of one state transition.
type wireChange struct {
	Kind string   `json:"kind"` // "asserted" or "terminated"
	At   int64    `json:"at"`
	Fact wireFact `json:"fact"`
}

// wireElement is the JSON encoding of one emitted element.
type wireElement struct {
	Stream    string     `json:"stream"`
	Timestamp int64      `json:"timestamp"`
	Fields    wireFields `json:"fields,omitempty"`
}

// wireDelivery is the JSON payload of one pushed subscription delivery:
// the `data:` line of one SSE event.
type wireDelivery struct {
	Kind      string        `json:"kind"` // "deltas", "resync" or "notice"
	Watermark int64         `json:"watermark"`
	Changes   []wireChange  `json:"changes,omitempty"`
	Emitted   []wireElement `json:"emitted,omitempty"`
	Result    *wireResult   `json:"result,omitempty"`
	Cut       int64         `json:"cut,omitempty"`
	State     []wireFact    `json:"state,omitempty"`
	// Note carries the payload of a "notice" event: an operational
	// message such as a durability degradation or recovery.
	Note string `json:"note,omitempty"`
}

// toWireFact encodes a fact, reading the belief end through the atomic
// accessor (broker-delivered facts may still be store-owned).
func toWireFact(f *element.Fact) wireFact {
	return wireFact{
		Entity: f.Entity, Attribute: f.Attribute, Value: wireValue(f.Value),
		Start: int64(f.Validity.Start), End: int64(f.Validity.End),
		Recorded: int64(f.RecordedAt), Superseded: int64(f.BeliefEnd()),
		Derived: f.Derived, Source: f.Source,
	}
}

func toWireElement(el *element.Element) wireElement {
	we := wireElement{Stream: el.Stream, Timestamp: int64(el.Timestamp)}
	if el.Tuple != nil && el.Tuple.Schema().Len() > 0 {
		we.Fields = make(wireFields, el.Tuple.Schema().Len())
		for i := 0; i < el.Tuple.Schema().Len(); i++ {
			name := el.Tuple.Schema().Field(i).Name
			if v, ok := el.Get(name); ok {
				we.Fields[name] = v
			}
		}
	}
	return we
}

func toWireDelivery(d subscribe.Delivery) wireDelivery {
	wd := wireDelivery{
		Kind:      d.Kind.String(),
		Watermark: int64(d.Watermark),
		Result:    (*wireResult)(d.Result),
		Cut:       int64(d.Cut),
		Note:      d.Note,
	}
	for _, ch := range d.Changes {
		kind := "asserted"
		if ch.Kind == state.Terminated {
			kind = "terminated"
		}
		wd.Changes = append(wd.Changes, wireChange{Kind: kind, At: int64(ch.At), Fact: toWireFact(ch.Fact)})
	}
	for _, el := range d.Emitted {
		wd.Emitted = append(wd.Emitted, toWireElement(el))
	}
	for _, f := range d.State {
		wd.State = append(wd.State, toWireFact(f))
	}
	return wd
}

// boolParam parses an optional boolean query parameter.
func boolParam(r *http.Request, name string) (bool, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("bad %s: %w", name, err)
	}
	return v, nil
}

// subscribeParams builds the subscription filter and options from the
// request. Every parse failure is a client error (400), never a 500.
func subscribeParams(r *http.Request) (subscribe.Filter, []subscribe.SubOption, error) {
	q := r.URL.Query()
	f := subscribe.Filter{
		Entity: q.Get("entity"),
		Attr:   q.Get("attr"),
		Stream: q.Get("stream"),
		Query:  q.Get("query"),
	}
	var err error
	if f.Changes, err = boolParam(r, "changes"); err != nil {
		return f, nil, err
	}
	if f.Emitted, err = boolParam(r, "emitted"); err != nil {
		return f, nil, err
	}
	var opts []subscribe.SubOption
	if raw := q.Get("queue"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			return f, nil, fmt.Errorf("bad queue: %q", raw)
		}
		opts = append(opts, subscribe.WithQueueLen(n))
	}
	cursor := q.Get("cursor")
	if cursor == "" {
		// Standard SSE reconnect: the browser resends the last `id:`.
		cursor = r.Header.Get("Last-Event-ID")
	}
	if cursor != "" {
		n, err := strconv.ParseInt(cursor, 10, 64)
		if err != nil {
			return f, nil, fmt.Errorf("bad cursor: %q", cursor)
		}
		opts = append(opts, subscribe.ResumeFrom(temporal.Instant(n)))
	}
	return f, opts, nil
}

// handleSubscribe validates the parameters, registers the subscription
// and streams its deliveries as Server-Sent Events until the client
// disconnects. Each event is `event: deltas|resync|notice`, `id:` the
// watermark (the reconnect cursor), `data:` the JSON delivery.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if s.broker == nil {
		http.Error(w, "subscriptions require an engine-backed server (NewForEngine)", http.StatusNotFound)
		return
	}
	f, opts, err := subscribeParams(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sub, err := s.broker.Subscribe(f, opts...)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer sub.Close()
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// Unblock the Recv loop when the client goes away.
	go func() {
		<-r.Context().Done()
		sub.Close()
	}()
	// Per-write deadline: a stalled client's TCP backpressure surfaces
	// as a write error here instead of pinning this goroutine forever.
	// Recorders and other transports without deadline support are fine —
	// SetWriteDeadline then reports ErrNotSupported and is skipped.
	rc := http.NewResponseController(w)
	for {
		d, ok := sub.Recv()
		if !ok {
			return
		}
		payload, err := json.Marshal(toWireDelivery(d))
		if err != nil {
			return
		}
		if s.StreamWriteTimeout > 0 {
			_ = rc.SetWriteDeadline(time.Now().Add(s.StreamWriteTimeout))
		}
		if _, err := fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", d.Kind, int64(d.Watermark), payload); err != nil {
			return
		}
		fl.Flush()
	}
}
