// Package wal implements the write-ahead log that gives unidb's in-memory
// multi-model engine durability: every mutation of every keyspace — and
// therefore of every data model — flows through one log, which is also what
// the engine's replica ships to reproduce the paper's hybrid-consistency
// experiments. (The design follows the paper's OctopusDB aside: "all insert
// and update operations create logical log entries in that log".)
//
// Record framing on disk:
//
//	4 bytes  little-endian payload length
//	4 bytes  CRC32 (IEEE) of the payload
//	payload  (varint-framed fields)
//
// A torn or corrupt tail terminates replay cleanly — records after the first
// bad frame are discarded, which matches the commit protocol: a transaction
// is durable iff its commit record is fully on disk.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Op identifies a log record type.
type Op uint8

// Record operations.
const (
	OpSet Op = iota + 1
	OpDelete
	OpCommit
	OpAbort
	OpDropKeyspace
	// OpPrepare marks a transaction's records durable but undecided: the
	// first phase of a cross-shard commit. The decision lives elsewhere (the
	// shard coordinator's log); replay treats a prepared transaction as
	// committed only when the decider says so, and a later OpCommit/OpAbort
	// in the same log supersedes the prepare locally.
	OpPrepare
)

func (o Op) String() string {
	switch o {
	case OpSet:
		return "set"
	case OpDelete:
		return "delete"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpDropKeyspace:
		return "drop"
	case OpPrepare:
		return "prepare"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Record is one logical log entry.
type Record struct {
	LSN      uint64
	Txn      uint64
	Op       Op
	Keyspace string
	Key      []byte
	Value    []byte
}

// Options configures a Log beyond its file path.
type Options struct {
	// SyncEveryCommit makes every commit/abort Append — and every
	// AppendBatch durability barrier — fsync before returning (the engine's
	// Synced level). When false the log only flushes to the OS buffer.
	SyncEveryCommit bool
	// CommitWindow caps how many queued committers one group-commit leader
	// drains into a single write+fsync window. 0 selects
	// DefaultCommitWindow; 1 disables coalescing (every committer fsyncs
	// alone, the pre-group-commit behavior).
	CommitWindow int
}

// DefaultCommitWindow is the group-commit window size used when
// Options.CommitWindow is zero.
const DefaultCommitWindow = 128

// Log is an append-only write-ahead log backed by a single file.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	nextLSN uint64
	sync    bool
	path    string
	window  int       // max committers coalesced per fsync window
	com     committer // group-commit queue (Synced AppendBatch path)
	stats   logStats

	// testAfterFlush, when set, runs after a commit window's buffered
	// write+flush and before its fsync — the gap a crash-recovery test
	// needs to capture the "flushed but not yet durable" file image.
	testAfterFlush func()
}

// Open opens (creating if needed) the log file at path. When syncEveryCommit
// is true, Append of a commit record fsyncs before returning. A torn or
// corrupt tail left by a crash is truncated away so new records append
// after the last intact one.
func Open(path string, syncEveryCommit bool) (*Log, error) {
	return OpenOptions(path, Options{SyncEveryCommit: syncEveryCommit})
}

// OpenOptions is Open with full control over durability and the
// group-commit window.
func OpenOptions(path string, opts Options) (*Log, error) {
	recs, validSize, err := scan(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	if info, err := f.Stat(); err == nil && info.Size() > validSize {
		if err := f.Truncate(validSize); err != nil {
			return nil, errors.Join(fmt.Errorf("wal: truncate torn tail: %w", err), f.Close())
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	next := uint64(1)
	if n := len(recs); n > 0 {
		next = recs[n-1].LSN + 1
	}
	window := opts.CommitWindow
	if window <= 0 {
		window = DefaultCommitWindow
	}
	return &Log{f: f, w: bufio.NewWriter(f), nextLSN: next, sync: opts.SyncEveryCommit, path: path, window: window}, nil
}

// Path returns the log file path.
func (l *Log) Path() string { return l.path }

// Append writes a record, assigning and returning its LSN. Commit and abort
// records flush (and optionally sync) the log — the WAL rule.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errors.New("wal: log closed")
	}
	rec.LSN = l.nextLSN
	l.nextLSN++
	if _, err := l.w.Write(frameRecord(nil, rec)); err != nil {
		return 0, fmt.Errorf("wal: write: %w", err)
	}
	l.stats.appends.Add(1)
	if rec.Op == OpCommit || rec.Op == OpAbort || rec.Op == OpPrepare {
		if err := l.w.Flush(); err != nil {
			return 0, fmt.Errorf("wal: flush: %w", err)
		}
		if l.sync {
			if err := l.f.Sync(); err != nil {
				return 0, fmt.Errorf("wal: sync: %w", err)
			}
			l.stats.fsyncs.Add(1)
		}
	}
	return rec.LSN, nil
}

// frameRecord appends rec's on-disk frame (length + CRC header + payload)
// to dst and returns the extended slice.
func frameRecord(dst []byte, rec Record) []byte {
	payload := encodeRecord(rec)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// Flush forces buffered records to the OS.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.w.Flush()
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// CheckpointCut flushes buffered frames and returns the byte offset of the
// end of the durable-prefix — the watermark a checkpoint snapshot covers.
// Records framed before the cut are exactly the ones whose effects the
// snapshot captures; TruncatePrefix(cut) later discards that prefix. The
// caller must exclude concurrent commit windows for the duration of the cut
// (the engine holds its commit barrier exclusively).
func (l *Log) CheckpointCut() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return 0, errors.New("wal: log closed")
	}
	if err := l.w.Flush(); err != nil {
		return 0, fmt.Errorf("wal: cut flush: %w", err)
	}
	off, err := l.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, fmt.Errorf("wal: cut: %w", err)
	}
	return off, nil
}

// TruncatePrefix discards the log's first off bytes (made redundant by a
// checkpoint snapshot) while keeping every record appended after the cut,
// with LSNs preserved — recovery then replays snapshot + suffix. The suffix
// moves atomically: it is written to a temp file, fsynced, and renamed over
// the log, so a crash at any point leaves either the full old log or the
// complete suffix (replaying an already-checkpointed prefix over the
// snapshot is idempotent — every prefixed key ends at its snapshot value).
// The caller must exclude concurrent commit windows (the engine holds its
// commit barrier exclusively, covering the out-of-mutex group-commit fsync).
func (l *Log) TruncatePrefix(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log closed")
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	end, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if off < 0 || off > end {
		return fmt.Errorf("wal: truncate prefix offset %d outside log of %d bytes", off, end)
	}
	suffix := make([]byte, end-off)
	if len(suffix) > 0 {
		if _, err := l.f.ReadAt(suffix, off); err != nil {
			return fmt.Errorf("wal: read suffix: %w", err)
		}
	}
	tmp := l.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate prefix: %w", err)
	}
	if len(suffix) > 0 {
		if _, err := nf.Write(suffix); err != nil {
			return errors.Join(fmt.Errorf("wal: rewrite suffix: %w", err), nf.Close())
		}
	}
	if err := nf.Sync(); err != nil {
		return errors.Join(fmt.Errorf("wal: sync suffix: %w", err), nf.Close())
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return errors.Join(err, nf.Close())
	}
	if err := l.f.Close(); err != nil {
		return errors.Join(err, nf.Close())
	}
	l.f = nf
	l.w.Reset(l.f)
	return nil
}

// Truncate discards the log contents (after a checkpoint has made them
// redundant) and resets the LSN counter to nextLSN.
func (l *Log) Truncate(nextLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log closed")
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	l.w.Reset(l.f)
	l.nextLSN = nextLSN
	return nil
}

func encodeRecord(r Record) []byte {
	buf := make([]byte, 0, 24+len(r.Keyspace)+len(r.Key)+len(r.Value))
	buf = binary.AppendUvarint(buf, r.LSN)
	buf = binary.AppendUvarint(buf, r.Txn)
	buf = append(buf, byte(r.Op))
	buf = binary.AppendUvarint(buf, uint64(len(r.Keyspace)))
	buf = append(buf, r.Keyspace...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = binary.AppendUvarint(buf, uint64(len(r.Value)))
	buf = append(buf, r.Value...)
	return buf
}

func decodeRecord(payload []byte) (Record, error) {
	var r Record
	var n int
	r.LSN, n = binary.Uvarint(payload)
	if n <= 0 {
		return r, errors.New("wal: bad lsn")
	}
	payload = payload[n:]
	r.Txn, n = binary.Uvarint(payload)
	if n <= 0 {
		return r, errors.New("wal: bad txn")
	}
	payload = payload[n:]
	if len(payload) < 1 {
		return r, errors.New("wal: missing op")
	}
	r.Op = Op(payload[0])
	payload = payload[1:]
	ks, payload, err := takeBytes(payload)
	if err != nil {
		return r, err
	}
	r.Keyspace = string(ks)
	r.Key, payload, err = takeBytes(payload)
	if err != nil {
		return r, err
	}
	r.Value, payload, err = takeBytes(payload)
	if err != nil {
		return r, err
	}
	if len(payload) != 0 {
		return r, errors.New("wal: trailing bytes in record")
	}
	return r, nil
}

// takeBytes splits the length-prefixed field at the head of b from the
// rest. The field aliases b: each record's payload is read into a buffer of
// its own, and the trees recovery replays into copy what they keep.
func takeBytes(b []byte) ([]byte, []byte, error) {
	ln, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, nil, errors.New("wal: bad length")
	}
	b = b[n:]
	if uint64(len(b)) < ln {
		return nil, nil, errors.New("wal: short field")
	}
	return b[:ln:ln], b[ln:], nil
}

// ReadAll replays every intact record in the file at path. A torn or
// corrupt tail ends the replay without error; real I/O failures are
// returned. A missing file yields an empty slice.
func ReadAll(path string) ([]Record, error) {
	recs, _, err := scan(path)
	return recs, err
}

// scan reads intact records and reports the byte offset where the valid
// prefix ends (everything after is torn or corrupt).
func scan(path string) ([]Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("wal: read: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var recs []Record
	var valid int64
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return recs, valid, nil // clean or torn end
		}
		ln := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if ln > 1<<30 {
			return recs, valid, nil // corrupt length; stop
		}
		payload := make([]byte, ln)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, valid, nil // torn record
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, valid, nil // corrupt record
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return recs, valid, nil
		}
		recs = append(recs, rec)
		valid += int64(8 + len(payload))
	}
}

// CommittedSets filters records down to the Set/Delete/Drop operations of
// committed transactions, in LSN order — exactly what recovery must replay.
// Prepared-but-undecided transactions are treated as aborted (presumed
// abort); use ReplaySets with a decider to resolve them from a coordinator.
func CommittedSets(recs []Record) []Record {
	return ReplaySets(recs, nil)
}

// ReplaySets filters records down to the Set/Delete/Drop operations recovery
// must replay, in LSN order. A transaction replays when its OpCommit record
// is in the log, or when it reached OpPrepare without a local decision and
// the decider — consulted with the transaction id, which doubles as the
// global 2PC transaction id — reports the coordinator committed it. A nil
// decider presumes abort for every in-doubt prepare.
func ReplaySets(recs []Record, decide func(txn uint64) bool) []Record {
	committed := map[uint64]bool{}
	prepared := map[uint64]bool{}
	for _, r := range recs {
		switch r.Op {
		case OpCommit:
			committed[r.Txn] = true
		case OpPrepare:
			prepared[r.Txn] = true
		case OpAbort:
			// A local abort decides a prepare: never replay.
			delete(prepared, r.Txn)
		case OpSet, OpDelete, OpDropKeyspace:
			// Data records are filtered below.
		}
	}
	if decide != nil {
		for txn := range prepared {
			if !committed[txn] && decide(txn) {
				committed[txn] = true
			}
		}
	}
	var out []Record
	for _, r := range recs {
		switch r.Op {
		case OpSet, OpDelete, OpDropKeyspace:
			if committed[r.Txn] {
				out = append(out, r)
			}
		case OpCommit, OpAbort, OpPrepare:
			// Control records are consumed above; replay applies data only.
		}
	}
	return out
}

// SetAfterFlushHook installs fn to run after a commit window's buffered
// write+flush and before its fsync — the gap where a crash leaves bytes in
// the OS but not durable. Crash-recovery tests capture the file image there.
func (l *Log) SetAfterFlushHook(fn func()) { l.testAfterFlush = fn }

// SnapshotPath returns the conventional snapshot file path next to a WAL.
func SnapshotPath(dir string) string { return filepath.Join(dir, "snapshot.db") }

// LogPath returns the conventional WAL file path in dir.
func LogPath(dir string) string { return filepath.Join(dir, "wal.log") }
