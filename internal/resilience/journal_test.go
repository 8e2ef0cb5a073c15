package resilience

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
