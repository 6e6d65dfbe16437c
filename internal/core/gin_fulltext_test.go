package core_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/inverted"
	"repro/internal/mmvalue"
	"repro/internal/query"
)

// GIN and full-text indexes are docstore keyspaces. These tests pin what
// that buys: they survive reopen and crash recovery, a build is ordered
// against live writers, and a sharded database answers `@>` and FTSEARCH
// as one engine does.

// seedPosts creates the "posts" collection with a few tagged documents.
func seedPosts(t testing.TB, db *core.DB) {
	t.Helper()
	if err := db.Update(func(tx engine.Tx) error {
		if err := db.Docs.CreateCollection(tx, "posts", catalogSchemaless()); err != nil {
			return err
		}
		for i, body := range []string{
			`{"tags":["db","graph"],"body":"Graph databases are multi-model"}`,
			`{"tags":["db"],"body":"Relational databases and SQL"}`,
			`{"tags":["cooking"],"body":"Cooking with gas","meta":{"by":"ann"}}`,
			`{"tags":["db","json"],"body":"JSON documents in a graph","meta":{"by":"bob"}}`,
			`{"tags":[],"body":"empty tags"}`,
		} {
			if err := db.Docs.Put(tx, "posts", fmt.Sprintf("p%d", i), mmvalue.MustParseJSON(body)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// postsGINQueries are `@>` statements over posts with a non-empty pattern,
// so a GIN on posts serves each of them.
var postsGINQueries = []string{
	`FOR d IN posts FILTER d @> {tags: ["db"]} SORT d._key RETURN d._key`,
	`FOR d IN posts FILTER d @> {tags: ["db", "graph"]} RETURN d._key`,
	`FOR d IN posts FILTER d @> {meta: {by: "bob"}} RETURN d.body`,
	`FOR d IN posts FILTER d @> {tags: ["nothing"]} RETURN d._key`,
}

// postsTextQueries are FTSEARCH statements over posts.
var postsTextQueries = []string{
	`FOR k IN FTSEARCH("posts", "graph") RETURN k`,
	`FOR k IN FTSEARCH("posts", "Databases MULTI") RETURN k`,
	`RETURN FTSEARCH("posts", "cooking nothing")`,
}

// indexAnswers runs the posts corpus, failing unless every `@>` statement
// read the GIN, and returns the results as JSON in corpus order.
func indexAnswers(t *testing.T, db *core.DB) []string {
	t.Helper()
	var out []string
	for _, q := range postsGINQueries {
		res, err := db.Query(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if !slices.Contains(res.Stats.IndexUsed, "doc:posts GIN (@>)") {
			t.Fatalf("%s did not use the GIN: %+v", q, res.Stats)
		}
		out = append(out, mustJSON(t, res.Values))
	}
	for _, q := range postsTextQueries {
		res, err := db.Query(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out = append(out, mustJSON(t, res.Values))
	}
	return append(out, fmt.Sprint(db.FullTextSearch("posts", "graph")))
}

// copyDir copies a data directory file by file, as a crash would leave it
// to the next open: whatever the database had written, with no Close.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGINAndFullTextSurviveReopenAndCrash: both indexes are in the WAL and
// the checkpoint like any keyspace, so a reopened directory, and a copy of
// it taken without Close, answer through them as the original did.
func TestGINAndFullTextSurviveReopenAndCrash(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("Shards%d", shards), func(t *testing.T) {
			open := func(dir string) *core.DB {
				db, err := core.Open(core.Options{Dir: dir, Durability: engine.Synced, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			dir := t.TempDir()
			db := open(dir)
			seedPosts(t, db)
			if err := db.CreateGIN("posts", inverted.PathOpsMode); err != nil {
				t.Fatal(err)
			}
			if err := db.CreateFullText("posts"); err != nil {
				t.Fatal(err)
			}
			// Written after the builds and after a checkpoint, so recovery
			// replays index maintenance from the log.
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.Update(func(tx engine.Tx) error {
				if err := db.Docs.Put(tx, "posts", "p9", mmvalue.MustParseJSON(`{"tags":["db","graph"],"body":"a graph of posts"}`)); err != nil {
					return err
				}
				if err := db.Docs.Update(tx, "posts", "p1", mmvalue.MustParseJSON(`{"tags":["sql"]}`)); err != nil {
					return err
				}
				_, err := db.Docs.Delete(tx, "posts", "p3")
				return err
			}); err != nil {
				t.Fatal(err)
			}
			want := indexAnswers(t, db)
			crashDir := t.TempDir()
			copyDir(t, dir, crashDir)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			for name, d := range map[string]string{"reopen": dir, "crash": crashDir} {
				db := open(d)
				got := indexAnswers(t, db)
				db.Close()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: answers\n%v\nwant\n%v", name, got, want)
				}
			}
		})
	}
}

// TestGINBuildUnderConcurrentWriter builds a GIN while a writer commits
// inserts, updates and deletes. The build is one transaction ordered by 2PL
// against the writer, so no write falls between its scan and its install:
// on every snapshot taken during and after the churn, the GIN's answer
// equals a NoIndexes scan's.
func TestGINBuildUnderConcurrentWriter(t *testing.T) {
	db := openDB(t)
	if err := db.Update(func(tx engine.Tx) error {
		return db.Docs.CreateCollection(tx, "c", catalogSchemaless())
	}); err != nil {
		t.Fatal(err)
	}
	doc := func(i int) mmvalue.Value {
		return mmvalue.Object(mmvalue.F("tag", mmvalue.Int(int64(i%3))), mmvalue.F("n", mmvalue.Int(int64(i))))
	}
	var commits atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := db.Update(func(tx engine.Tx) error {
				if err := db.Docs.Put(tx, "c", fmt.Sprintf("k%d", i%40), doc(i)); err != nil {
					return err
				}
				if i%5 == 0 {
					_, err := db.Docs.Delete(tx, "c", fmt.Sprintf("k%d", (i+17)%40))
					return err
				}
				return nil
			})
			if err != nil {
				writerErr = err
				return
			}
			commits.Add(1)
		}
	}()
	for commits.Load() < 20 {
		runtime.Gosched() // let the writer fill the collection first
	}
	if err := db.CreateGIN("c", inverted.OpsMode); err != nil {
		t.Fatal(err)
	}
	pipe, err := query.ParseMMQL(`FOR d IN c FILTER d @> @p SORT d._key RETURN d.n`)
	if err != nil {
		t.Fatal(err)
	}
	check := func() {
		t.Helper()
		for tag := 0; tag < 3; tag++ {
			params := map[string]mmvalue.Value{"p": mmvalue.Object(mmvalue.F("tag", mmvalue.Int(int64(tag))))}
			if err := db.SnapshotView(func(tx engine.Tx) error {
				gin, err := query.Execute(tx, db.Sources(), pipe, query.Options{Params: params})
				if err != nil {
					return err
				}
				scan, err := query.Execute(tx, db.Sources(), pipe, query.Options{Params: params, Ablate: query.NoIndexes})
				if err != nil {
					return err
				}
				if len(gin.Stats.IndexUsed) == 0 {
					return fmt.Errorf("@> did not use the GIN: %+v", gin.Stats)
				}
				if g, s := mustJSON(t, gin.Values), mustJSON(t, scan.Values); g != s {
					return fmt.Errorf("tag %d: GIN %s, scan %s", tag, g, s)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < 20; round++ {
		check()
	}
	close(stop)
	wg.Wait()
	if writerErr != nil {
		t.Fatal(writerErr)
	}
	check()
}

// TestShardedGINAndFullTextMatchSingleEngine: at Shards 4 the index
// keyspaces are hash-partitioned like any other, and `@>` and FTSEARCH
// answer exactly as on one engine.
func TestShardedGINAndFullTextMatchSingleEngine(t *testing.T) {
	dbs := []*core.DB{openDB(t), openShardedDB(t)}
	for _, db := range dbs {
		seedPosts(t, db)
		if err := db.CreateGIN("posts", inverted.OpsMode); err != nil {
			t.Fatal(err)
		}
		if err := db.CreateFullText("posts"); err != nil {
			t.Fatal(err)
		}
	}
	single, sharded := indexAnswers(t, dbs[0]), indexAnswers(t, dbs[1])
	if !reflect.DeepEqual(single, sharded) {
		t.Fatalf("Shards 4 answers\n%v\nShards 1 answers\n%v", sharded, single)
	}
}
