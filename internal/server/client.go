package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/element"
	"repro/internal/query"
)

// Client queries a remote state service.
type Client struct {
	// BaseURL is the service root, e.g. "http://host:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Query runs a temporal query remotely and returns the result table.
// The rows share one backing array, and their string values one string.
func (c *Client) Query(q string) (*query.Result, error) {
	body, err := json.Marshal(queryRequest{Query: q})
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Post(c.BaseURL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("server: query: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("server: query failed (%d): %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	bp := getBuf()
	defer putBuf(bp)
	b, err := readBody(*bp, resp.Body, resp.ContentLength)
	*bp = b
	if err != nil {
		return nil, fmt.Errorf("server: query: %w", err)
	}
	res, err := parseResult(b)
	if err != nil {
		return nil, fmt.Errorf("server: decode: %w", err)
	}
	return res, nil
}

// Current fetches the current fact for (entity, attr) from the remote
// store.
func (c *Client) Current(entity, attr string) (*element.Fact, bool, error) {
	return c.fact(entity, attr, "")
}

// fact reads one fact. The names are query-escaped, so any entity or
// attribute reaches the server intact; instants holds the already safe
// at/systime parameters. Escaping each name directly, rather than
// through url.Values, keeps a map and a sort off the point-read path.
func (c *Client) fact(entity, attr, instants string) (*element.Fact, bool, error) {
	resp, err := c.http().Get(c.BaseURL + "/fact?entity=" + url.QueryEscape(entity) +
		"&attr=" + url.QueryEscape(attr) + instants)
	if err != nil {
		return nil, false, fmt.Errorf("server: fact: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, false, fmt.Errorf("server: fact failed (%d): %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var fr factResponse
	if err := json.NewDecoder(resp.Body).Decode(&fr); err != nil {
		return nil, false, fmt.Errorf("server: decode: %w", err)
	}
	if !fr.Found {
		return nil, false, nil
	}
	return fromWireFact(*fr.Fact), true, nil
}

// Stats fetches remote store occupancy. The endpoint also carries
// non-scalar rows (segments_per_level is a per-level array); those are
// skipped here — this accessor keeps its flat counter contract, and
// callers wanting the full shape can GET /stats themselves.
func (c *Client) Stats() (map[string]int, error) {
	resp, err := c.http().Get(c.BaseURL + "/stats")
	if err != nil {
		return nil, fmt.Errorf("server: stats: %w", err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return nil, fmt.Errorf("server: decode: %w", err)
	}
	out := make(map[string]int, len(raw))
	for k, v := range raw {
		var n int
		if err := json.Unmarshal(v, &n); err == nil {
			out[k] = n
		}
	}
	return out, nil
}

// RemoteState adapts a Client to the lookup shape gates use, so one
// engine's stream processing can be conditioned on another engine's
// state (the §3.2 interoperability scenario). Lookups are synchronous
// HTTP round trips; cache in front if the remote state changes slowly.
type RemoteState struct {
	Client *Client
}

// Lookup returns the current remote value of attr(entity).
func (r *RemoteState) Lookup(attr string, entity element.Value) (element.Value, bool) {
	f, ok, err := r.Client.Current(entity.String(), attr)
	if err != nil || !ok {
		return element.Null, false
	}
	return f.Value, true
}
