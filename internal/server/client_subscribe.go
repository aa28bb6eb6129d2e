// Client half of the subscription surface: Client.Subscribe opens the
// SSE stream and decodes its events back into domain types. A dropped
// connection resumes from the last received event's watermark — the
// server answers a stale cursor with one resync catch-up instead of a
// silent gap.

package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/element"
	"repro/internal/query"
	"repro/internal/temporal"
)

// SubscribeOptions selects what a subscription receives; the zero value
// subscribes to everything. Fields mirror subscribe.Filter.
type SubscribeOptions struct {
	// Entity/Attr restrict state-change deliveries; Stream restricts
	// emitted-element deliveries. Setting any implies the matching class.
	Entity, Attr, Stream string
	// Changes/Emitted opt into delivery classes explicitly.
	Changes, Emitted bool
	// Query is a continuous SELECT re-evaluated per watermark.
	Query string
	// QueueLen overrides the server-side per-client queue bound (0 = default).
	QueueLen int
	// Cursor resumes from a last-seen watermark when HasCursor is set.
	Cursor    temporal.Instant
	HasCursor bool
}

// EventChange is one decoded state transition.
type EventChange struct {
	// Kind is "asserted" or "terminated".
	Kind string
	// At is the transaction time of the transition.
	At temporal.Instant
	// Fact is the affected version.
	Fact *element.Fact
}

// EventElement is one decoded emitted element.
type EventElement struct {
	// Stream is the derived stream name.
	Stream string
	// Timestamp is the element's application time.
	Timestamp temporal.Instant
	// Fields holds the tuple's values by field name.
	Fields map[string]element.Value
}

// Event is one decoded subscription delivery.
type Event struct {
	// Kind is "deltas" (one watermark's filtered batch) or "resync" (a
	// snapshot-pinned catch-up after a gap).
	Kind string
	// Watermark is the instant of the batch that produced the event.
	Watermark temporal.Instant
	// Changes and Emitted are the filtered deltas (deltas events).
	Changes []EventChange
	Emitted []EventElement
	// Result is the continuous query's result when it changed.
	Result *query.Result
	// Cut is the transaction-time cut of a resync; State is the filtered
	// believed state at that cut.
	Cut   temporal.Instant
	State []*element.Fact
}

// Subscription is a live server push stream. Recv blocks for the next
// event; Close tears the stream down. To resume, pass the last received
// event's Watermark as SubscribeOptions.Cursor.
type Subscription struct {
	body io.ReadCloser
	sc   *bufio.Scanner
}

// Subscribe opens a push subscription over SSE.
func (c *Client) Subscribe(o SubscribeOptions) (*Subscription, error) {
	v := url.Values{}
	set := func(k, s string) {
		if s != "" {
			v.Set(k, s)
		}
	}
	set("entity", o.Entity)
	set("attr", o.Attr)
	set("stream", o.Stream)
	set("query", o.Query)
	if o.Changes {
		v.Set("changes", "true")
	}
	if o.Emitted {
		v.Set("emitted", "true")
	}
	if o.QueueLen > 0 {
		v.Set("queue", strconv.Itoa(o.QueueLen))
	}
	if o.HasCursor {
		v.Set("cursor", strconv.FormatInt(int64(o.Cursor), 10))
	}
	resp, err := c.http().Get(c.BaseURL + "/subscribe?" + v.Encode())
	if err != nil {
		return nil, fmt.Errorf("server: subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("server: subscribe failed (%d): %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	return &Subscription{body: resp.Body, sc: sc}, nil
}

// Recv blocks until the next event arrives and returns it decoded. It
// returns io.EOF once the stream ends.
func (s *Subscription) Recv() (*Event, error) {
	var data []byte
	for s.sc.Scan() {
		line := s.sc.Text()
		switch {
		case line == "":
			if len(data) == 0 {
				continue // keep-alive or event/id-only block
			}
			var wd wireDelivery
			if err := json.Unmarshal(data, &wd); err != nil {
				return nil, fmt.Errorf("server: subscribe decode: %w", err)
			}
			return fromWireDelivery(wd), nil
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):]...)
		}
	}
	if err := s.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

// Close tears the stream down. The server drops the subscription.
func (s *Subscription) Close() error { return s.body.Close() }

func fromWireDelivery(wd wireDelivery) *Event {
	ev := &Event{
		Kind:      wd.Kind,
		Watermark: temporal.Instant(wd.Watermark),
		Result:    (*query.Result)(wd.Result),
		Cut:       temporal.Instant(wd.Cut),
	}
	for _, ch := range wd.Changes {
		ev.Changes = append(ev.Changes, EventChange{
			Kind: ch.Kind, At: temporal.Instant(ch.At), Fact: fromWireFact(ch.Fact),
		})
	}
	for _, el := range wd.Emitted {
		ev.Emitted = append(ev.Emitted, EventElement{
			Stream: el.Stream, Timestamp: temporal.Instant(el.Timestamp), Fields: el.Fields,
		})
	}
	for _, wf := range wd.State {
		ev.State = append(ev.State, fromWireFact(wf))
	}
	return ev
}

// fromWireFact rebuilds a fact from its wire form, including the
// transaction-time interval.
func fromWireFact(wf wireFact) *element.Fact {
	f := element.NewFact(wf.Entity, wf.Attribute, element.Value(wf.Value),
		temporal.NewInterval(temporal.Instant(wf.Start), temporal.Instant(wf.End)))
	f.Derived = wf.Derived
	f.Source = wf.Source
	// A live version's superseded is Forever, never 0, so a zero means
	// the payload predates the bitemporal fields: keep NewFact's
	// defaults rather than fabricate an empty belief.
	if wf.Superseded != 0 {
		f.RecordedAt = temporal.Instant(wf.Recorded)
		f.SupersededAt = temporal.Instant(wf.Superseded)
	}
	return f
}
