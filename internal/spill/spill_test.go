package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestStreamRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st, err := s.Stream("out0")
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf("frame-%d-%s", i, string(make([]byte, i*7))))
		want = append(want, append([]byte(nil), p...))
		seq, err := st.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint32(i) {
			t.Fatalf("Append seq = %d, want %d", seq, i)
		}
	}
	if st.Frames() != 20 {
		t.Fatalf("Frames = %d, want 20", st.Frames())
	}
	var got int
	err = st.Replay(func(seq uint32, payload []byte) error {
		if string(payload) != string(want[seq]) {
			t.Fatalf("frame %d payload mismatch", seq)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Fatalf("replayed %d frames, want 20", got)
	}
	// Append after a replay still works and replays again from the start.
	if _, err := st.Append([]byte("late")); err != nil {
		t.Fatal(err)
	}
	var last []byte
	if err := st.Replay(func(_ uint32, p []byte) error { last = append(last[:0], p...); return nil }); err != nil {
		t.Fatal(err)
	}
	if string(last) != "late" {
		t.Fatalf("last replayed frame = %q, want %q", last, "late")
	}
}

func TestReplayDetectsCorruption(t *testing.T) {
	for _, tc := range []struct {
		name  string
		off   int64  // where the corruption is written, behind the Stream's back
		bytes []byte // what is written there
	}{
		{"bitflip", headerLen + 2, []byte{'X'}},
		// Frame 0's length field claims 256 MiB. Replay must refuse it
		// before allocating a buffer of that size.
		{"length", 8, binary.LittleEndian.AppendUint32(nil, 256<<20)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			st, err := s.Stream("x")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Append([]byte("hello spill frame")); err != nil {
				t.Fatal(err)
			}
			if _, err := st.f.WriteAt(tc.bytes, tc.off); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = st.Replay(func(uint32, []byte) error { return nil })
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Replay = %v, want ErrCorrupt", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("Replay allocated %d bytes rejecting a corrupt frame, want < 1 MiB", grew)
			}
		})
	}
}

func TestReplayDetectsTruncation(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Stream("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := st.f.Truncate(headerLen + 4); err != nil {
		t.Fatal(err)
	}
	err = st.Replay(func(uint32, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay after truncation = %v, want ErrCorrupt", err)
	}
}

func TestCloseRemovesDirAndCounts(t *testing.T) {
	base := OpenStores()
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := OpenStores(); got != base+1 {
		t.Fatalf("OpenStores after NewStore = %d, want %d", got, base+1)
	}
	st, err := s.Stream("y")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	dir := s.Dir()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir %s survived Close (stat err %v)", dir, err)
	}
	if got := OpenStores(); got != base {
		t.Fatalf("OpenStores after Close = %d, want %d", got, base)
	}
	// Idempotent: a second Close neither errors nor double-decrements.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := OpenStores(); got != base {
		t.Fatalf("OpenStores after double Close = %d, want %d", got, base)
	}
	if _, err := s.Stream("z"); err == nil {
		t.Fatal("Stream on closed store succeeded")
	}
}

func TestSweepOrphans(t *testing.T) {
	root := t.TempDir()
	// A dead process's leftover (PID 1<<30 cannot exist) and a live one
	// (our own PID).
	dead := filepath.Join(root, fmt.Sprintf("mozart-spill-%d-abc", 1<<30))
	live := filepath.Join(root, fmt.Sprintf("mozart-spill-%d-def", os.Getpid()))
	other := filepath.Join(root, "unrelated-dir")
	for _, d := range []string{dead, live, other} {
		if err := os.Mkdir(d, 0o700); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := SweepOrphans(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != dead {
		t.Fatalf("SweepOrphans removed %v, want only %s", removed, dead)
	}
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("live store swept: %v", err)
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatalf("unrelated dir swept: %v", err)
	}
}

// encodeFrame is the on-disk form Append writes for one frame.
func encodeFrame(seq uint32, payload []byte) []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// FuzzReplay replays a stream whose file holds arbitrary bytes in place of
// the two frames appended to it. Replay returns nil or an error wrapping
// ErrCorrupt, never panics, and never allocates a payload buffer larger
// than the file (plus a fixed slack for the read itself).
func FuzzReplay(f *testing.F) {
	p0, p1 := []byte("hello spill frame"), []byte("0123456789")
	valid := append(encodeFrame(0, p0), encodeFrame(1, p1)...)
	f.Add(valid)
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+2] = 'X'
	f.Add(flipped)
	f.Add(valid[:headerLen+4])
	fd, err := os.CreateTemp(f.TempDir(), "fuzz-*.mzsp")
	if err != nil {
		f.Fatal(err)
	}
	defer fd.Close()
	f.Fuzz(func(t *testing.T, file []byte) {
		if err := fd.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := fd.WriteAt(file, 0); err != nil {
			t.Fatal(err)
		}
		// The stream as Append left it after p0 and p1.
		st := &Stream{f: fd, seq: 2, bytes: int64(len(p0) + len(p1))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := st.Replay(func(uint32, []byte) error { return nil })
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Replay = %v, want nil or ErrCorrupt", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(file))+64<<10 {
			t.Fatalf("Replay of a %d-byte file allocated %d bytes", len(file), grew)
		}
	})
}
