// Command unidb is an interactive shell for the unidb multi-model database.
//
// Usage:
//
//	unidb [-dir data] [-sql] [-shards N]
//
// Lines are MMQL by default (or MSQL with -sql / after ".sql"). Meta
// commands: .help, .mmql, .sql, .keyspaces, .stats, .checkpoint, .quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/unidb"
)

func main() {
	dir := flag.String("dir", "", "data directory (empty = in-memory)")
	useSQL := flag.Bool("sql", false, "start in MSQL mode")
	shards := flag.Int("shards", 0, "hash-partition keyspaces across N engine shards (0/1 = single engine)")
	flag.Parse()

	opts := unidb.Options{Dir: *dir, Shards: *shards}
	if *dir != "" {
		opts.Durability = unidb.Buffered
	}
	db, err := unidb.Open(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "open:", err)
		os.Exit(1)
	}
	defer db.Close()

	mode := "mmql"
	if *useSQL {
		mode = "msql"
	}
	fmt.Println("unidb shell — multi-model database (EDBT'17 tutorial reproduction)")
	fmt.Println(`type ".help" for help, ".quit" to exit`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Printf("%s> ", mode)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		switch {
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			fmt.Println(`meta commands:
  .mmql        switch to MMQL (FOR/FILTER/RETURN)
  .sql         switch to MSQL (SELECT/FROM/WHERE)
  .checkpoint  snapshot + truncate WAL (durable databases)
  .quit        exit
  .keyspaces   list engine keyspaces and sizes
  .stats       WAL, plan cache, and shard counters
anything else runs as a query in the current language`)
		case line == ".mmql":
			mode = "mmql"
		case line == ".sql":
			mode = "msql"
		case line == ".keyspaces":
			for _, ks := range db.Core().Keyspaces() {
				fmt.Printf("  %-40s %d keys\n", ks, db.Core().KeyspaceLen(ks))
			}
		case line == ".stats":
			printStats(db)
		case line == ".checkpoint":
			if err := db.Checkpoint(); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("checkpointed")
			}
		default:
			run(db, mode, line)
		}
	}
}

func printStats(db *unidb.Database) {
	ws := db.WALStats()
	fmt.Printf("wal: appends=%d batched=%d windows=%d group-commits=%d fsyncs=%d saved=%d\n",
		ws.Appends, ws.BatchedAppends, ws.Windows, ws.GroupCommits, ws.Fsyncs, ws.FsyncsSaved)
	ps := db.PlanCacheStats()
	fmt.Printf("plans: hits=%d misses=%d size=%d epoch=%d\n", ps.Hits, ps.Misses, ps.Size, ps.Epoch)
	ss := db.ShardStats()
	fmt.Printf("shards: n=%d fanouts=%d cross-shard-txns=%d prepares=%d\n",
		ss.Shards, ss.ShardFanouts, ss.CrossShardTxns, ss.PreparedTxns)
	for i, vers := range ss.KeyspaceVersions {
		fmt.Printf("  shard %d: %d keyspaces versioned\n", i, len(vers))
	}
}

func run(db *unidb.Database, mode, text string) {
	var res *unidb.Result
	var err error
	if mode == "msql" {
		res, err = db.SQL(text, nil)
	} else {
		res, err = db.Query(text, nil)
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, v := range res.Values {
		fmt.Println(v)
	}
	fmt.Printf("-- %d result(s); scans: %d full, %d indexed\n",
		len(res.Values), res.Stats.FullScans, res.Stats.IndexScans)
}
