package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
)

func newServer(t *testing.T) (*core.DB, *httptest.Server) {
	return newServerOpts(t, core.Options{})
}

func newServerOpts(t *testing.T, opts core.Options) (*core.DB, *httptest.Server) {
	t.Helper()
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	err = db.Update(func(tx engine.Tx) error {
		return db.Docs.CreateCollection(tx, "products", catalog.Schemaless)
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(db))
	t.Cleanup(func() { ts.Close(); db.Close() })
	return db, ts
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

func TestHealthz(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"Unsharded", core.Options{}},
		// A sharded database has no single engine to ask.
		{"Sharded", core.Options{Shards: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newServerOpts(t, tc.opts)
			code, body := do(t, "GET", ts.URL+"/healthz", "")
			if code != 200 || !strings.Contains(body, `"status":"ok"`) {
				t.Fatalf("healthz = %d %s", code, body)
			}
		})
	}
}

func TestDocumentCRUD(t *testing.T) {
	_, ts := newServer(t)
	code, _ := do(t, "PUT", ts.URL+"/collections/products/p1", `{"name":"Toy","price":66}`)
	if code != 200 {
		t.Fatalf("PUT = %d", code)
	}
	code, body := do(t, "GET", ts.URL+"/collections/products/p1", "")
	if code != 200 || !strings.Contains(body, `"name":"Toy"`) {
		t.Fatalf("GET = %d %s", code, body)
	}
	code, _ = do(t, "DELETE", ts.URL+"/collections/products/p1", "")
	if code != 200 {
		t.Fatalf("DELETE = %d", code)
	}
	code, _ = do(t, "GET", ts.URL+"/collections/products/p1", "")
	if code != 404 {
		t.Fatalf("GET after delete = %d", code)
	}
	code, _ = do(t, "DELETE", ts.URL+"/collections/products/p1", "")
	if code != 404 {
		t.Fatalf("double DELETE = %d", code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, ts := newServer(t)
	do(t, "PUT", ts.URL+"/collections/products/p1", `{"name":"Toy","price":66}`)
	do(t, "PUT", ts.URL+"/collections/products/p2", `{"name":"Book","price":40}`)
	code, body := do(t, "POST", ts.URL+"/query",
		`{"query": "FOR p IN products FILTER p.price > @min RETURN p.name", "params": {"min": 50}}`)
	if code != 200 {
		t.Fatalf("query = %d %s", code, body)
	}
	var resp struct {
		Results []mmvalue.Value `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].AsString() != "Toy" {
		t.Fatalf("results = %v", resp.Results)
	}
}

func TestSQLEndpoint(t *testing.T) {
	_, ts := newServer(t)
	do(t, "PUT", ts.URL+"/collections/products/p1", `{"name":"Toy","price":66}`)
	code, body := do(t, "POST", ts.URL+"/sql",
		`{"query": "SELECT name FROM products p WHERE price = 66"}`)
	if code != 200 || !strings.Contains(body, `"name":"Toy"`) {
		t.Fatalf("sql = %d %s", code, body)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := newServer(t)
	code, _ := do(t, "POST", ts.URL+"/query", `{"query": ""}`)
	if code != 400 {
		t.Fatalf("empty query = %d", code)
	}
	code, _ = do(t, "POST", ts.URL+"/query", `not json`)
	if code != 400 {
		t.Fatalf("bad json = %d", code)
	}
	code, body := do(t, "POST", ts.URL+"/query", `{"query": "FOR x IN nope RETURN x"}`)
	if code != 400 || !strings.Contains(body, "unknown source") {
		t.Fatalf("bad source = %d %s", code, body)
	}
}

func TestKVEndpoints(t *testing.T) {
	_, ts := newServer(t)
	code, _ := do(t, "PUT", ts.URL+"/kv/cart/1", `"34e5e759"`)
	if code != 200 {
		t.Fatalf("PUT kv = %d", code)
	}
	code, body := do(t, "GET", ts.URL+"/kv/cart/1", "")
	if code != 200 || strings.TrimSpace(body) != `"34e5e759"` {
		t.Fatalf("GET kv = %d %q", code, body)
	}
	code, _ = do(t, "GET", ts.URL+"/kv/cart/missing", "")
	if code != 404 {
		t.Fatalf("missing kv = %d", code)
	}
}

func TestBadPaths(t *testing.T) {
	_, ts := newServer(t)
	code, _ := do(t, "GET", ts.URL+"/collections/onlyone", "")
	if code != 404 {
		t.Fatalf("short path = %d", code)
	}
	code, _ = do(t, "PATCH", ts.URL+"/kv/b/k", "")
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("bad method = %d", code)
	}
}

func TestPutInvalidDocument(t *testing.T) {
	_, ts := newServer(t)
	code, _ := do(t, "PUT", ts.URL+"/collections/products/p1", `{broken`)
	if code != 400 {
		t.Fatalf("invalid doc = %d", code)
	}
	// Unregistered collection fails.
	code, _ = do(t, "PUT", ts.URL+"/collections/ghost/k", `{"a":1}`)
	if code != 400 {
		t.Fatalf("unregistered coll = %d", code)
	}
}

// TestControlCharactersRoundTrip stores a string holding a control
// character and reads it back through both the point route and /query: each
// answer must be valid JSON that decodes to the stored string.
func TestControlCharactersRoundTrip(t *testing.T) {
	_, ts := newServer(t)
	const stored = "a\u0007b\u000bc\u007fd\U000E0001"
	body, err := json.Marshal(stored)
	if err != nil {
		t.Fatal(err)
	}
	if code, resp := do(t, "PUT", ts.URL+"/kv/b/k", string(body)); code != 200 {
		t.Fatalf("PUT kv = %d %s", code, resp)
	}
	code, resp := do(t, "GET", ts.URL+"/kv/b/k", "")
	var got string
	if code != 200 || json.Unmarshal([]byte(resp), &got) != nil || got != stored {
		t.Fatalf("GET kv = %d %q, want %q", code, resp, body)
	}
	code, resp = do(t, "POST", ts.URL+"/query", `{"query": "RETURN KV('b','k')"}`)
	var out struct {
		Results []string `json:"results"`
	}
	if code != 200 || json.Unmarshal([]byte(resp), &out) != nil ||
		len(out.Results) != 1 || out.Results[0] != stored {
		t.Fatalf("query = %d %q", code, resp)
	}
}

type badJSON struct{}

func (badJSON) MarshalJSON() ([]byte, error) { return []byte(`"\a"`), nil }

func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, badJSON{})
	var resp errorResponse
	if rec.Code != http.StatusInternalServerError ||
		json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Error == "" {
		t.Fatalf("writeJSON of unencodable value = %d %q", rec.Code, rec.Body.String())
	}
}

// TestOversizedBodyRefused sends each body-reading route a valid JSON
// prefix followed by more than a megabyte of padding and trailing garbage:
// the route must answer 413 and act on nothing, not on the prefix. A body
// of exactly the limit is still read.
func TestOversizedBodyRefused(t *testing.T) {
	pad := strings.Repeat(" ", maxBody)
	for _, tc := range []struct {
		name, method, path, body, check string
	}{
		{"query", "POST", "/query", `{"query":"INSERT {_key: 'q1'} INTO products"}`, "/collections/products/q1"},
		{"collections", "PUT", "/collections/products/p1", `{"a":1}`, "/collections/products/p1"},
		{"kv", "PUT", "/kv/b/k", `{"a":1}`, "/kv/b/k"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newServer(t)
			code, body := do(t, tc.method, ts.URL+tc.path, tc.body+pad+"garbage")
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized body: %d %s, want 413", code, body)
			}
			if code, body := do(t, "GET", ts.URL+tc.check, ""); code != http.StatusNotFound {
				t.Fatalf("after a refused body, GET %s = %d %s, want 404", tc.check, code, body)
			}
			code, body = do(t, tc.method, ts.URL+tc.path, tc.body+pad[len(tc.body):])
			if code != http.StatusOK {
				t.Fatalf("body of exactly %d bytes: %d %s, want 200", maxBody, code, body)
			}
		})
	}
}
