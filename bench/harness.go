package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/colstore"
	"repro/internal/docstore"
	"repro/internal/graphstore"
	"repro/internal/kvstore"
	"repro/internal/mmvalue"
	"repro/internal/relstore"
	"repro/internal/server"
	"repro/unidb"
)

// env is one database under test, opened exactly as `cmd/unidb-server -dir`
// opens it (Dir plus Buffered durability: the WAL is flushed to the OS at
// commit and never fsynced; no other option), behind the real HTTP handler on
// a loopback listener.
type env struct {
	dir    string
	db     *unidb.Database
	srv    *http.Server
	served chan error
	base   string
}

func openDB(dir string) (*unidb.Database, error) {
	return unidb.Open(unidb.Options{Dir: dir, Durability: unidb.Buffered})
}

func openEnv(dir string) (*env, error) {
	db, err := openDB(dir)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &env{
		dir:    dir,
		db:     db,
		srv:    &http.Server{Handler: server.New(db.Core())},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// close stops the server, waits for its goroutine, closes the database and
// removes the data directory.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, e.db.Close(), os.RemoveAll(e.dir))
}

// setup opens a fresh database under root, loads the dataset and makes the
// first request. The returned duration is the setup_s sample.
func setup(root string, m *model) (*env, time.Duration, error) {
	dir, err := os.MkdirTemp(root, "db-")
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	e, err := openEnv(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	if err := m.load(e.db); err != nil {
		e.close()
		return nil, 0, err
	}
	c := newHTTPClient(e.base)
	defer c.close()
	status, body, err := c.do(http.MethodGet, "/kv/session/"+sessionKey(0), nil)
	if err != nil || status != http.StatusOK || !sameJSON(body, sessionJSON(0, 0)) {
		e.close()
		return nil, 0, fmt.Errorf("first request: status %d, err %v, body %.80q", status, err, body)
	}
	return e, time.Since(t0), nil
}

// httpClient is one client: one goroutine, one keep-alive connection.
type httpClient struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	buf  bytes.Buffer
}

func newHTTPClient(base string) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpClient{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr: tr, base: base}
}

func (c *httpClient) close() { c.tr.CloseIdleConnections() }

// do sends one request and returns the status and the body, which is valid
// until the next call.
func (c *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// sameJSON compares a response body with the expected JSON text: byte for
// byte first, and by value if the bytes differ, so that a change in spacing
// or key order is not reported as a wrong answer.
func sameJSON(got []byte, want string) bool {
	if string(got) == want {
		return true
	}
	g, err := mmvalue.ParseJSON(got)
	if err != nil {
		return false
	}
	w, err := mmvalue.ParseJSON([]byte(want))
	return err == nil && mmvalue.Equal(g, w)
}

// snap is the process and log state at one edge of the measured window.
type snap struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	wal     int64
}

func takeSnap(dir string) (snap, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return snap{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w, err := walBytes(dir)
	return snap{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		wal:     w,
	}, err
}

// walBytes sums the log files under a data directory (one wal.log unsharded;
// one per shard plus coord.log under a router).
func walBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".log") {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	return n, err
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// crashImage copies a live data directory file by file, without Close: what a
// process kill would leave, given that Buffered commits have reached the OS.
func crashImage(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// recoverImage takes a crash image of e's directory, times unidb.Open on it,
// runs verify against the recovered database and removes the image. The
// duration is the recovery_s sample; the int is how many of verify's checks
// failed.
func recoverImage(root string, e *env, verify func(db *unidb.Database) (checked, wrong int)) (time.Duration, int, int, error) {
	img, err := os.MkdirTemp(root, "img-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(img)
	if err := crashImage(e.dir, img); err != nil {
		return 0, 0, 0, fmt.Errorf("crash image: %w", err)
	}
	t0 := time.Now()
	db, err := openDB(img)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("recover: %w", err)
	}
	took := time.Since(t0)
	checked, wrong := verify(db)
	return took, checked, wrong, db.Close()
}

// verifyLoaded checks a database against the model as loaded: every
// keyspace's cardinality, and a seeded sample of point reads in every model.
func (m *model) verifyLoaded(db *unidb.Database) (checked, wrong int) {
	expect := func(ok bool) {
		checked++
		if !ok {
			wrong++
		}
	}
	core := db.Core()
	for ks, n := range map[string]int{
		relstore.Keyspace("customers"):      nCustomers,
		docstore.Keyspace("products"):       nProducts,
		docstore.Keyspace("orders"):         len(m.Orders),
		docstore.Keyspace("profiles"):       nProfiles,
		kvstore.Keyspace("cart"):            nCustomers,
		kvstore.Keyspace("session"):         nSessions,
		graphstore.VertexKeyspace("social"): nCustomers,
		graphstore.EdgeKeyspace("social"):   m.Edges,
		colstore.Keyspace("events"):         2 * nEvents, // one key per attribute
	} {
		expect(core.KeyspaceLen(ks) == n)
	}
	r := rand.New(rand.NewSource(m.Seed))
	err := db.SnapshotView(func(tx *unidb.Txn) error {
		for i := 0; i < 64; i++ {
			c := r.Intn(nCustomers)
			row, ok, err := tx.GetRow("customers", mmvalue.Int(int64(c)))
			expect(err == nil && ok && mmvalue.Equal(row, m.Customers[c].value()))
			cart, ok, err := tx.KVGet("cart", custKey(c))
			expect(err == nil && ok && cart.AsString() == m.Orders[m.Cart[c]].Key)
			ord := m.Orders[r.Intn(len(m.Orders))]
			doc, ok, err := tx.GetDocument("orders", ord.Key)
			expect(err == nil && ok && mmvalue.Equal(doc, ord.value(0)))
			s := r.Intn(nSessions)
			v, ok, err := tx.KVGet("session", sessionKey(s))
			expect(err == nil && ok && v.String() == sessionJSON(s, 0))
			p := r.Intn(nProfiles)
			v, ok, err = tx.GetDocument("profiles", profileKey(p))
			expect(err == nil && ok && v.String() == profileJSON(p, 0))
			ev := r.Intn(nEvents)
			item, ok, err := tx.GetItem("events", mmvalue.String("p"+strconv.Itoa(ev%8)), mmvalue.Int(int64(ev)))
			expect(err == nil && ok && item.GetOr("v").AsInt() == eventV(ev))
		}
		for i := 0; i < 16; i++ {
			c := r.Intn(nCustomers)
			ns, err := tx.Neighbors("social", custKey(c), unidb.Outbound, "knows")
			expect(err == nil && len(ns) == len(m.Knows[c]))
			ts, err := tx.MatchTriples("feedback", custTerm(c), "<rated>", "")
			expect(err == nil && len(ts) == len(m.Rated[c]))
		}
		return nil
	})
	expect(err == nil)
	return checked, wrong
}
