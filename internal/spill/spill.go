// Package spill is the out-of-core stages' output store: a temp-file,
// append-only frame log an out-of-core stage writes one frame per (output,
// window) into and replays in order at stage finale.
//
// Design constraints, in order:
//
//   - Integrity: every frame carries a CRC-32 (IEEE) over its payload and a
//     sequence number; Replay verifies both, so a torn write, disk bitflip,
//     or truncation surfaces as a structured error instead of silently
//     corrupt merged output.
//   - Crash safety: each process namespaces its stores under a directory
//     embedding its PID ("mozart-spill-<pid>-*"). SweepOrphans removes
//     directories whose owning process is gone, so a crashed evaluation
//     never leaks disk.
//   - Clean drain: Store.Close force-removes the directory (idempotently),
//     and the package-level OpenStores counter lets a draining server
//     assert zero live stores the same way the Governor asserts zero
//     reserved bytes.
//
// Frame layout, little-endian:
//
//	magic "MZSP" | uint32 seq | uint32 payload len | uint32 CRC-32(payload) | payload
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// frame header: magic(4) + seq(4) + len(4) + crc(4).
const headerLen = 16

var magic = [4]byte{'M', 'Z', 'S', 'P'}

// ErrCorrupt is wrapped by every integrity failure Replay detects (bad
// magic, sequence gap, CRC mismatch, truncated frame).
var ErrCorrupt = errors.New("spill: corrupt frame")

// openStores counts live (un-Closed) Stores process-wide.
var openStores atomic.Int64

// OpenStores returns the number of Stores created and not yet closed in
// this process. A byte-clean drain requires it to be zero.
func OpenStores() int64 { return openStores.Load() }

// Store is one stage's spill directory: a set of named append-only frame
// streams under a private temp directory. Safe for concurrent use across
// streams; each individual Stream is single-writer (an out-of-core stage
// appends from the coordinating goroutine).
type Store struct {
	dir string

	mu      sync.Mutex
	streams map[string]*Stream
	closed  bool
}

// NewStore creates a spill store under dir (the OS temp dir when empty).
// The directory name embeds the process PID so SweepOrphans can reclaim it
// if the process dies before Close.
func NewStore(dir string) (*Store, error) {
	root, err := os.MkdirTemp(dir, fmt.Sprintf("mozart-spill-%d-*", os.Getpid()))
	if err != nil {
		return nil, fmt.Errorf("spill: create store: %w", err)
	}
	openStores.Add(1)
	return &Store{dir: root, streams: map[string]*Stream{}}, nil
}

// Dir returns the store's directory path.
func (s *Store) Dir() string { return s.dir }

// Stream returns (creating on first use) the named frame stream.
func (s *Store) Stream(name string) (*Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("spill: store is closed")
	}
	if st, ok := s.streams[name]; ok {
		return st, nil
	}
	f, err := os.OpenFile(filepath.Join(s.dir, name+".mzsp"), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("spill: open stream %q: %w", name, err)
	}
	st := &Stream{f: f}
	s.streams[name] = st
	return st, nil
}

// Bytes returns the total payload bytes appended across all streams.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, st := range s.streams {
		n += st.bytes
	}
	return n
}

// Frames returns the total frames appended across all streams.
func (s *Store) Frames() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, st := range s.streams {
		n += int64(st.seq)
	}
	return n
}

// Close force-removes the store's directory and every stream in it.
// Idempotent; the first call decrements the OpenStores counter.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, st := range s.streams {
		if err := st.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := os.RemoveAll(s.dir); err != nil && first == nil {
		first = err
	}
	openStores.Add(-1)
	return first
}

// Stream is one append-only frame log. Append and Replay may interleave
// (Replay reads at independent offsets), but Append itself is single-writer.
type Stream struct {
	f     *os.File
	mu    sync.Mutex
	seq   uint32
	bytes int64
}

// Append writes one CRC-framed payload and returns its sequence number.
func (st *Stream) Append(payload []byte) (seq uint32, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var hdr [headerLen]byte
	copy(hdr[:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], st.seq)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(payload))
	if _, err := st.f.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("spill: append header: %w", err)
	}
	if _, err := st.f.Write(payload); err != nil {
		return 0, fmt.Errorf("spill: append payload: %w", err)
	}
	seq = st.seq
	st.seq++
	st.bytes += int64(len(payload))
	return seq, nil
}

// Frames returns the number of frames appended so far.
func (st *Stream) Frames() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return int64(st.seq)
}

// Bytes returns the payload bytes appended so far.
func (st *Stream) Bytes() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.bytes
}

// Replay reads every frame in append order, verifying magic, sequence
// continuity, and payload CRC, and calls fn for each. The payload slice is
// reused between calls; fn must not retain it. Any integrity failure
// returns an error wrapping ErrCorrupt. A frame's length field is checked
// against the payload bytes the stream still holds before anything is
// allocated for it, so a corrupt length cannot ask for gigabytes on the
// out-of-core path, which runs exactly when memory is short.
func (st *Stream) Replay(fn func(seq uint32, payload []byte) error) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	want, left := st.seq, st.bytes
	r := io.NewSectionReader(st.f, 0, 1<<62)
	var hdr [headerLen]byte
	var buf []byte
	for i := uint32(0); i < want; i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("%w: frame %d: truncated header: %v", ErrCorrupt, i, err)
		}
		if [4]byte(hdr[:4]) != magic {
			return fmt.Errorf("%w: frame %d: bad magic %q", ErrCorrupt, i, hdr[:4])
		}
		if seq := binary.LittleEndian.Uint32(hdr[4:8]); seq != i {
			return fmt.Errorf("%w: frame %d: sequence %d out of order", ErrCorrupt, i, seq)
		}
		n := binary.LittleEndian.Uint32(hdr[8:12])
		if int64(n) > left {
			return fmt.Errorf("%w: frame %d: length %d exceeds the %d payload bytes left", ErrCorrupt, i, n, left)
		}
		left -= int64(n)
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(r, buf); err != nil {
			return fmt.Errorf("%w: frame %d: truncated payload: %v", ErrCorrupt, i, err)
		}
		if got, wantCRC := crc32.ChecksumIEEE(buf), binary.LittleEndian.Uint32(hdr[12:16]); got != wantCRC {
			return fmt.Errorf("%w: frame %d: CRC %08x != %08x", ErrCorrupt, i, got, wantCRC)
		}
		if err := fn(i, buf); err != nil {
			return err
		}
	}
	return nil
}

// SweepOrphans scans root (the OS temp dir when empty) for spill
// directories left behind by dead processes and removes them. It returns
// the directories removed. Directories owned by live processes — including
// this one — are left alone.
func SweepOrphans(root string) ([]string, error) {
	if root == "" {
		root = os.TempDir()
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "mozart-spill-") {
			continue
		}
		rest := strings.TrimPrefix(e.Name(), "mozart-spill-")
		dash := strings.IndexByte(rest, '-')
		if dash <= 0 {
			continue
		}
		pid, err := strconv.Atoi(rest[:dash])
		if err != nil || pid <= 0 || pidAlive(pid) {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if err := os.RemoveAll(dir); err == nil {
			removed = append(removed, dir)
		}
	}
	return removed, nil
}

// pidAlive reports whether a process with the given PID exists. On Linux
// /proc/<pid> is authoritative; elsewhere fall back to assuming alive
// (never reclaim a live process's spill).
func pidAlive(pid int) bool {
	if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(pid))); err == nil {
		return true
	} else if os.IsNotExist(err) {
		if _, perr := os.Stat("/proc/self"); perr == nil {
			return false
		}
	}
	return true
}
