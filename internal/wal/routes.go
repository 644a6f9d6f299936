package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// RoutesFile is the route log's file name inside a WAL directory.
const RoutesFile = "routes.wal"

// RouteRecord pins one graph's shard assignment. Records are appended to a
// single dedicated log (RoutesFile) whose total order is file position, so
// the last record for a graph wins — no cross-file sequence comparison is
// ever needed, unlike the per-shard update logs. Shard < 0 records a route
// removal (the graph was dropped while routed away from its hash shard).
// Seq is the graph's update sequence at the instant the route was written;
// it is diagnostic only — replacement is by file order, not by Seq.
type RouteRecord struct {
	Graph string
	Shard int
	Seq   uint64
}

const recRoute = 1 // payload type tag (route-log namespace)

// appendRouteFrame appends r's CRC32C frame (same 8-byte header layout as
// the update logs: LE payload length + Castagnoli CRC) to dst.
func appendRouteFrame(dst []byte, r *RouteRecord) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, recRoute)
	dst = binary.AppendUvarint(dst, uint64(len(r.Graph)))
	dst = append(dst, r.Graph...)
	dst = binary.AppendVarint(dst, int64(r.Shard))
	dst = binary.AppendUvarint(dst, r.Seq)
	payload := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// decodeRouteFrame parses one frame at the head of data, returning the
// record and bytes consumed, or an error when the head is not a whole,
// checksummed, well-formed route frame.
func decodeRouteFrame(data []byte) (RouteRecord, int, error) {
	var r RouteRecord
	if len(data) < 8 {
		return r, 0, fmt.Errorf("%w: short route frame header (%d bytes)", ErrCorrupt, len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if n == 0 || n > maxFrame || int(n) > len(data)-8 {
		return r, 0, fmt.Errorf("%w: route frame length %d overruns buffer", ErrCorrupt, n)
	}
	p := data[8 : 8+int(n)]
	if crc := crc32.Checksum(p, castagnoli); crc != binary.LittleEndian.Uint32(data[4:]) {
		return r, 0, fmt.Errorf("%w: route frame CRC mismatch", ErrCorrupt)
	}
	consumed := 8 + int(n)
	if len(p) < 1 || p[0] != recRoute {
		return r, 0, fmt.Errorf("%w: unknown route record type", ErrCorrupt)
	}
	p = p[1:]
	idLen, k := binary.Uvarint(p)
	if k <= 0 || idLen > uint64(len(p)-k) {
		return r, 0, fmt.Errorf("%w: bad route graph ID length", ErrCorrupt)
	}
	p = p[k:]
	r.Graph = string(p[:idLen])
	p = p[idLen:]
	sh, k := binary.Varint(p)
	if k <= 0 {
		return r, 0, fmt.Errorf("%w: bad route shard index", ErrCorrupt)
	}
	p = p[k:]
	r.Shard = int(sh)
	if r.Seq, k = binary.Uvarint(p); k <= 0 {
		return r, 0, fmt.Errorf("%w: bad route sequence", ErrCorrupt)
	}
	p = p[k:]
	if len(p) != 0 {
		return r, 0, fmt.Errorf("%w: %d trailing route payload bytes", ErrCorrupt, len(p))
	}
	// Accept only the canonical encoding (minimal varints), so a decoded
	// frame always re-encodes to the bytes it was read from.
	if !bytes.Equal(appendRouteFrame(nil, &r), data[:consumed]) {
		return r, 0, fmt.Errorf("%w: non-canonical route frame", ErrCorrupt)
	}
	return r, consumed, nil
}

// RouteLog is the durable graph-to-shard routing journal of one WAL
// directory: a single append-only file whose Append is the commit point of
// a migration. All methods must be called from one goroutine at a time
// (the service serializes them under its route mutex).
type RouteLog struct {
	f    *os.File
	path string
}

// OpenRoutes opens dir's route log, returning the decoded records in file
// (= commit) order. A torn tail — a crash mid-append — is truncated away:
// the bytes past the last whole frame were never acknowledged as a route
// flip, so the migration they belonged to never happened durably. A missing
// file is an empty log.
func OpenRoutes(dir string) (*RouteLog, []RouteRecord, error) {
	path := filepath.Join(dir, RoutesFile)
	var recs []RouteRecord
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: read routes: %w", err)
	}
	off := 0
	for off < len(data) {
		r, n, derr := decodeRouteFrame(data[off:])
		if derr != nil {
			break
		}
		recs = append(recs, r)
		off += n
	}
	if off < len(data) {
		if err := os.Truncate(path, int64(off)); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate torn route tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open routes: %w", err)
	}
	return &RouteLog{f: f, path: path}, recs, nil
}

// Append appends and fsyncs one route record. The fsync is what makes a
// migration's flip durable, so Append returning nil means recovery after
// any crash will place the graph by this record.
func (l *RouteLog) Append(r RouteRecord) error {
	buf := appendRouteFrame(nil, &r)
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append route: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync route: %w", err)
	}
	return nil
}

// Compact atomically rewrites the log to exactly the live records (temp
// file, fsync, rename, directory sync) and reopens it for append. Called at
// recovery, after dead entries — dropped graphs, superseded flips, removals
// — have been folded out, so the file never grows without bound.
func (l *RouteLog) Compact(live []RouteRecord) error {
	var buf []byte
	for i := range live {
		buf = appendRouteFrame(buf, &live[i])
	}
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, RoutesFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: compact routes: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: compact routes: %w", err)
	}
	if err := os.Rename(tmpName, l.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: compact routes: %w", err)
	}
	syncDir(dir)
	old := l.f
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen routes: %w", err)
	}
	l.f = f
	old.Close()
	return nil
}

// Close closes the route log file.
func (l *RouteLog) Close() error { return l.f.Close() }
