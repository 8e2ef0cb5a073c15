package resilience

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

func openJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal(%s): %v", path, err)
	}
	return j
}

func TestJournalAcceptDonePending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j := openJournal(t, path)
	defer j.Close()

	if err := j.Accept("j1", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("j2", []byte(`{"b":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Done("j1"); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"j2": []byte(`{"b":2}`)}
	if got := j.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pending = %v, want %v", got, want)
	}
	// Done on unknown ids is a tolerated no-op.
	if err := j.Done("never-accepted"); err != nil {
		t.Fatal(err)
	}
	if len(j.Pending()) != 1 {
		t.Fatalf("Len = %d, want 1", len(j.Pending()))
	}
}

func TestJournalSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j := openJournal(t, path)
	for _, id := range []string{"a", "b", "c"} {
		if err := j.Accept(id, []byte("spec-"+id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Done("b"); err != nil {
		t.Fatal(err)
	}
	// Simulate SIGKILL: no Close, just reopen the same path.
	j2 := openJournal(t, path)
	defer j2.Close()
	want := map[string][]byte{"a": []byte("spec-a"), "c": []byte("spec-c")}
	if got := j2.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Pending after reopen = %v, want %v", got, want)
	}
	// Compaction rewrote the file: a third open agrees.
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ReadJournal = %v, want %v", got, want)
	}
}

func TestJournalTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j := openJournal(t, path)
	if err := j.Accept("whole", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Append half a record: a crash mid-append.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(raw, 'A', 9, 0, 0, 0, 'x', 'y')
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := openJournal(t, path)
	defer j2.Close()
	if got := j2.Pending(); len(got) != 1 || string(got["whole"]) != "payload" {
		t.Fatalf("Pending after torn tail = %v, want only the whole record", got)
	}
	// Partial recovery is not silent: the dropped tail is surfaced.
	if j2.Warning() == nil {
		t.Fatal("torn tail recovered with a nil Warning")
	}
}

func TestJournalGarbageFileRecoversEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := openJournal(t, path)
	defer j.Close()
	if len(j.Pending()) != 0 {
		t.Fatalf("garbage journal has %d pending", len(j.Pending()))
	}
	// Dropping an unrecognisable file is loud, not silent.
	if j.Warning() == nil {
		t.Fatal("garbage journal recovered with a nil Warning")
	}
	// And it is usable afterwards.
	if err := j.Accept("x", []byte("y")); err != nil {
		t.Fatal(err)
	}
}

func TestJournalCleanFileHasNoWarning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j := openJournal(t, path)
	if err := j.Accept("a", []byte("p")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openJournal(t, path)
	defer j2.Close()
	if w := j2.Warning(); w != nil {
		t.Fatalf("clean journal reopened with Warning %v", w)
	}
}

func TestJournalCompactsWhenDrained(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j := openJournal(t, path)
	defer j.Close()
	// Each cycle is two appends; the journal compacts once 128 appends
	// have accumulated with nothing pending, so 64 cycles end compacted.
	for i := 0; i < 64; i++ {
		id := fmt.Sprintf("job-%03d", i)
		if err := j.Accept(id, []byte("p")); err != nil {
			t.Fatal(err)
		}
		if err := j.Done(id); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len("AIRWAL01")) {
		t.Fatalf("drained journal is %d bytes, want compacted to the bare header", info.Size())
	}
}

// A record whose declared field length runs past the end of the file is
// a torn tail, and the reader must find that out before it allocates the
// declared length: the 13 bytes below (header, 'A', a 16 MiB id length)
// once cost a 16 MiB allocation to reject.
func TestJournalFieldLengthBoundedByFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	raw := binary.LittleEndian.AppendUint32([]byte(journalMagic+"A"), 1<<24)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pending, warn, err := readJournalFile(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || warn == nil {
		t.Fatalf("lying length: pending %v, warning %v; want none recovered and a warning", pending, warn)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a %d-byte journal allocated %d bytes", len(raw), grew)
	}
}

// journalBytes frames records the way Accept and Done write them.
func journalBytes(t testing.TB, recs ...[3]string) []byte {
	var b bytes.Buffer
	b.WriteString(journalMagic)
	for _, r := range recs {
		if err := appendRecord(&b, r[0][0], r[1], []byte(r[2])); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// samePending compares pending sets by content: an empty payload may be
// nil on one side and empty on the other.
func samePending(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for id, p := range a {
		q, ok := b[id]
		if !ok || !bytes.Equal(p, q) {
			return false
		}
	}
	return true
}

// FuzzJournal: whatever bytes sit in the journal file, OpenJournal does
// not panic, recovers the pending set ReadJournal reads, and compacts the
// file to one that reopens to that same set with no warning.
func FuzzJournal(f *testing.F) {
	clean := journalBytes(f,
		[3]string{"A", "j000001", `{"dataset":"mini","machine":"t3e","nodes":1,"hours":1}`},
		[3]string{"A", "j000002", `{"dataset":"mini"}`},
		[3]string{"D", "j000001", ""})
	mixed := journalBytes(f,
		[3]string{"A", "j000003", `{"dataset":"mini","hours":2}`},
		[3]string{"A", "fs:f0001", `{"name":"s","specs":[{"dataset":"mini"}]}`},
		[3]string{"A", "sh:f0001:0001", `{"sweep":"f0001","worker":"w1","specs":1}`},
		[3]string{"D", "sh:f0001:0001", ""},
		[3]string{"A", "sh:f0001:0002", `{"sweep":"f0001","worker":"w2","specs":1}`},
		[3]string{"A", "j000004", ""})
	f.Add(clean)
	f.Add(mixed)
	f.Add(clean[:len(clean)-5])                     // torn tail
	f.Add(append([]byte("AIRWAL00"), clean[8:]...)) // bad header
	f.Add([]byte(journalMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		got := j.Pending()
		j.Close()
		if !samePending(got, want) {
			t.Fatalf("OpenJournal pending %v, ReadJournal %v", got, want)
		}
		j2, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		if w := j2.Warning(); w != nil {
			t.Fatalf("compacted journal reopened with warning %v", w)
		}
		if again := j2.Pending(); !samePending(again, want) {
			t.Fatalf("compacted journal reopened to %v, want %v", again, want)
		}
	})
}
