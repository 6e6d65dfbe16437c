// Package server exposes unidb over HTTP — the paper's open-data-model
// challenge asks for "a convenient unique interface to handle data from
// different sources"; this is that interface: one endpoint pair for the two
// query languages plus REST-ish document and key/value access.
//
// Endpoints:
//
//	POST /query          {"query": "...", "params": {...}}   MMQL
//	POST /sql            {"query": "...", "params": {...}}   MSQL
//	GET  /collections/{coll}/{key}                           fetch document
//	PUT  /collections/{coll}/{key}   body = JSON document    upsert document
//	DELETE /collections/{coll}/{key}
//	GET  /kv/{bucket}/{key}
//	PUT  /kv/{bucket}/{key}          body = JSON value
//	GET  /healthz
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// New returns the HTTP handler for a database.
func New(db *core.DB) http.Handler {
	s := &srv{db: db}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery(db.Query))
	mux.HandleFunc("POST /sql", s.handleQuery(db.SQL))
	mux.HandleFunc("/collections/", s.handleCollections)
	mux.HandleFunc("/kv/", s.handleKV)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "keyspaces": len(db.Keyspaces())})
	})
	return mux
}

type srv struct {
	db *core.DB
}

type queryRequest struct {
	Query  string                   `json:"query"`
	Params map[string]mmvalue.Value `json:"params"`
}

type queryResponse struct {
	Results []mmvalue.Value `json:"results"`
	Stats   any             `json:"stats"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *srv) handleQuery(run func(string, map[string]mmvalue.Value) (*coreResult, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		var req queryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
			return
		}
		if strings.TrimSpace(req.Query) == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty query"})
			return
		}
		res, err := run(req.Query, req.Params)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, queryResponse{Results: res.Values, Stats: res.Stats})
	}
}

// coreResult aliases the query result to keep the handler signature tidy.
type coreResult = queryResult

// handleCollections serves /collections/{coll}/{key}.
func (s *srv) handleCollections(w http.ResponseWriter, r *http.Request) {
	coll, key, ok := splitTwo(r.URL.Path, "/collections/")
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "want /collections/{coll}/{key}"})
		return
	}
	switch r.Method {
	case http.MethodGet:
		var doc mmvalue.Value
		var found bool
		err := s.db.View(func(tx engine.Tx) error {
			var err error
			doc, found, err = s.db.Docs.Get(tx, coll, key)
			return err
		})
		respondGet(w, doc, found, err)
	case http.MethodPut:
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		doc, err := mmvalue.ParseJSON(body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		err = s.db.Update(func(tx engine.Tx) error {
			return s.db.Docs.Put(tx, coll, key, doc)
		})
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"key": key})
	case http.MethodDelete:
		var existed bool
		err := s.db.Update(func(tx engine.Tx) error {
			var err error
			existed, err = s.db.Docs.Delete(tx, coll, key)
			return err
		})
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		if !existed {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "not found"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": key})
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// handleKV serves /kv/{bucket}/{key}.
func (s *srv) handleKV(w http.ResponseWriter, r *http.Request) {
	bucket, key, ok := splitTwo(r.URL.Path, "/kv/")
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "want /kv/{bucket}/{key}"})
		return
	}
	switch r.Method {
	case http.MethodGet:
		var v mmvalue.Value
		var found bool
		err := s.db.View(func(tx engine.Tx) error {
			var err error
			v, found, err = s.db.KV.Get(tx, bucket, key)
			return err
		})
		respondGet(w, v, found, err)
	case http.MethodPut:
		body, ok := readBody(w, r)
		if !ok {
			return
		}
		v, err := mmvalue.ParseJSON(body)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		err = s.db.Update(func(tx engine.Tx) error {
			return s.db.KV.Set(tx, bucket, key, v)
		})
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"key": key})
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

// maxBody is the largest request body a route accepts.
const maxBody = 1 << 20

// readBody reads the request body whole, reporting whether the route may go
// on. A body over maxBody is refused with 413, never cut to a prefix the
// route would then act on; any other read failure is a 400.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return nil, false
	}
	return body, true
}

func respondGet(w http.ResponseWriter, v mmvalue.Value, found bool, err error) {
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	if !found {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "not found"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, v.String())
}

func splitTwo(path, prefix string) (string, string, bool) {
	rest, ok := strings.CutPrefix(path, prefix)
	if !ok {
		return "", "", false
	}
	i := strings.IndexByte(rest, '/')
	if i <= 0 || i == len(rest)-1 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}

// writeJSON answers code with v as one line of JSON. It encodes before it
// writes the header, so a value that fails to encode answers 500 with an
// error body rather than an empty 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: "encode response: " + err.Error()}) //nolint:errcheck — a string field always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n')) //nolint:errcheck — best effort on the wire
}

// queryResult is the query-layer result type.
type queryResult = query.Result
