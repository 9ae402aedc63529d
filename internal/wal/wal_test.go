package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"statsat/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// openT opens the log at path and closes it when the test ends, so no
// writer goroutine outlives its test; Close is safe to call again after
// a test's own closeT.
func openT(t *testing.T, path string) (*Log, [][]byte) {
	t.Helper()
	l, recs, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() {
		if err := l.Close(); err != nil {
			t.Errorf("Close(%s) at cleanup: %v", path, err)
		}
	})
	return l, recs
}

func closeT(t *testing.T, l *Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"rec":%d,"pad":"%032d"}`, i, i))
	}
	return out
}

func wantRecords(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	want := payloads(17)
	l, recs := openT(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	for i, p := range want {
		var err error
		if i%5 == 4 {
			err = l.AppendSync(p)
		} else {
			err = l.Append(p)
		}
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	closeT(t, l)

	l2, recs := openT(t, path)
	wantRecords(t, recs, want)
	// The reopened log must accept further appends after the replayed
	// prefix.
	extra := []byte("after-reopen")
	if err := l2.AppendSync(extra); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	closeT(t, l2)
	_, recs = openT(t, path)
	wantRecords(t, recs, append(append([][]byte{}, want...), extra))
}

func TestAppendCopiesPayload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	l, _ := openT(t, path)
	buf := []byte("original")
	if err := l.Append(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBER!")
	closeT(t, l)
	_, recs := openT(t, path)
	wantRecords(t, recs, [][]byte{[]byte("original")})
}

func TestEmptyAndZeroLengthRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	l, _ := openT(t, path)
	if err := l.AppendSync(nil); err != nil {
		t.Fatalf("zero-length append: %v", err)
	}
	closeT(t, l)
	_, recs := openT(t, path)
	if len(recs) != 1 || len(recs[0]) != 0 {
		t.Fatalf("replay of zero-length record: got %q", recs)
	}
}

// TestTornWriteTable is the crash-recovery table test the durable
// fabric's correctness rests on: a log of N records is truncated at
// every byte offset inside its final record (header and payload), and
// replay must recover exactly the first N-1 records — the longest
// valid prefix — without error, then truncate the torn tail so
// subsequent appends produce a well-formed log.
func TestTornWriteTable(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	want := payloads(4)
	l, _ := openT(t, full)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	closeT(t, l)

	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lastLen := headerSize + len(want[3])
	prefixLen := len(raw) - lastLen

	for cut := prefixLen; cut < len(raw); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "torn.wal")
			if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l, recs := openT(t, path)
			wantRecords(t, recs, want[:3])
			// The torn tail must be gone: appending and replaying
			// yields prefix + the new record, nothing in between.
			if err := l.AppendSync([]byte("recovered")); err != nil {
				t.Fatal(err)
			}
			closeT(t, l)
			_, recs = openT(t, path)
			wantRecords(t, recs, append(append([][]byte{}, want[:3]...), []byte("recovered")))
		})
	}
}

// TestCorruptTail covers the bit-flip variant of a torn write: the
// final record's CRC no longer matches, so replay drops it.
func TestCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	want := payloads(3)
	l, _ := openT(t, path)
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	closeT(t, l)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs := openT(t, path)
	wantRecords(t, recs, want[:2])
	closeT(t, l)
}

// TestInsaneLengthPrefix: a tail whose length field decodes to an
// absurd size is corruption, not an allocation request.
func TestInsaneLengthPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	l, _ := openT(t, path)
	if err := l.AppendSync([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	closeT(t, l)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	l, recs := openT(t, path)
	wantRecords(t, recs, [][]byte{[]byte("ok")})
	closeT(t, l)
}

func TestRewriteCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	l, _ := openT(t, path)
	for _, p := range payloads(10) {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	kept := [][]byte{[]byte("survivor-a"), []byte("survivor-b")}
	if err := l.Rewrite(kept); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	// Appends after the rewrite land in the new file.
	if err := l.AppendSync([]byte("post-compaction")); err != nil {
		t.Fatal(err)
	}
	closeT(t, l)
	_, recs := openT(t, path)
	wantRecords(t, recs, append(append([][]byte{}, kept...), []byte("post-compaction")))
}

func TestOperationsAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	l, _ := openT(t, path)
	closeT(t, l)
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close = %v, want ErrClosed", err)
	}
	// Idempotent Close.
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestConcurrentAppend drives the group-commit writer from many
// goroutines under -race; every record must survive intact (order
// across goroutines is unspecified, presence and integrity are not).
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.wal")
	l, _ := openT(t, path)
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p := []byte(fmt.Sprintf("w%02d-%03d", w, i))
				var err error
				if i%7 == 0 {
					err = l.AppendSync(p)
				} else {
					err = l.Append(p)
				}
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	closeT(t, l)
	_, recs := openT(t, path)
	if len(recs) != writers*per {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*per)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		seen[string(r)] = true
	}
	if len(seen) != writers*per {
		t.Fatalf("%d distinct records, want %d", len(seen), writers*per)
	}
}

// FuzzOpen writes arbitrary bytes as a log file and opens it. Open
// must succeed, the records it returns must re-encode to a prefix of
// the input, the file must be cut to exactly that prefix, and opening
// it again must return the same records.
func FuzzOpen(f *testing.F) {
	// Seeds: TestTornWriteTable's cases, a four-record log cut at every
	// byte of its last record, plus the whole log.
	var full []byte
	want := payloads(4)
	for _, p := range want {
		full = encode(full, p)
	}
	for cut := len(full) - headerSize - len(want[3]); cut <= len(full); cut++ {
		f.Add(full[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs := openT(t, path)
		closeT(t, l)
		var prefix []byte
		for _, r := range recs {
			prefix = encode(prefix, r)
		}
		if !bytes.HasPrefix(data, prefix) {
			t.Fatalf("%d records re-encode to %d bytes that are not a prefix of the %d-byte input", len(recs), len(prefix), len(data))
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("file holds %d bytes after Open, want the %d-byte valid prefix", len(got), len(prefix))
		}
		l, again := openT(t, path)
		closeT(t, l)
		wantRecords(t, again, recs)
	})
}
