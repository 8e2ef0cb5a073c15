package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"airshed/internal/fleet"
	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/sched"
)

// TestReplayJournalAvoidsStaleIDCollision guards the double-crash
// recovery path: a fresh boot restarts job IDs at j000001, so without
// seeding the sequence past the replayed IDs a re-submitted job would
// journal itself under the SAME id as the stale pending entry it came
// from — and Recover's Done(staleID) would then retire the NEW entry,
// leaving the job unjournaled and silently lost on a second crash. The
// kill -9 integration test crashes only once and cannot see this.
func TestReplayJournalAvoidsStaleIDCollision(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "journal.wal")

	// Previous boot: a job was accepted as j000001 (the first id every
	// boot issues) and the process died before finishing it.
	spec := scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 1, Hours: 1}
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	j, err := resilience.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("j000001", payload); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// This boot: Recover re-submits the stale job.
	j2, err := resilience.OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	scheduler := sched.New(sched.Options{Workers: 1, Journal: j2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		scheduler.Shutdown(ctx)
	}()
	if n, err := scheduler.Recover(); err != nil || n != 1 {
		t.Fatalf("Recover = %d, %v; want 1 job re-submitted", n, err)
	}

	// The re-submission took a fresh id past the stale one.
	if _, err := scheduler.Status("j000002"); err != nil {
		t.Fatalf("replayed job did not get the seeded id j000002: %v", err)
	}

	// While the replayed job is unfinished its WAL entry must exist —
	// Recover's Done(j000001) retired only the stale entry. (Pending
	// is read before Status: if the job is still non-terminal at the
	// later Status call, it was non-terminal when Pending was taken, so
	// the entry had to be there. If the run already finished, the entry
	// is legitimately retired and the check does not apply.)
	pending := j2.Pending()
	if st, err := scheduler.Status("j000002"); err == nil && !st.State.Terminal() {
		if _, ok := pending["j000002"]; !ok {
			t.Fatalf("running replayed job has no journal entry; pending holds %d entries", len(pending))
		}
	}

	// New submissions continue the seeded sequence rather than reusing ids.
	st, err := scheduler.Submit(scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j000003" {
		t.Fatalf("post-replay submission id = %s, want j000003", st.ID)
	}

	// Both jobs retire their entries on completion. Done lands just
	// after the terminal state becomes observable, so poll briefly.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := scheduler.Await(ctx, "j000002"); err != nil {
		t.Fatal(err)
	}
	if _, err := scheduler.Await(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(j2.Pending()) != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := len(j2.Pending()); n != 0 {
		t.Fatalf("journal still holds %d entries after both jobs finished", n)
	}
}

// TestLegacyFleetJournalFolds boots over a store directory laid out by a
// coordinator that kept its sweeps apart, in <store>/fleet.wal. The boot
// folds the pending sweep into journal.wal and deletes fleet.wal, the
// coordinator resumes the sweep, and a kill before the sweep finishes
// resumes it exactly once more, from journal.wal alone.
func TestLegacyFleetJournalFolds(t *testing.T) {
	storeDir := t.TempDir()
	legacy := filepath.Join(storeDir, "fleet.wal")
	wal := filepath.Join(storeDir, "journal.wal")
	sweepRec := []byte(`{"name":"legacy","specs":[{"dataset":"mini","machine":"t3e","nodes":1,"hours":1}]}`)
	old, err := resilience.OpenJournal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Accept("fs:f0003", sweepRec); err != nil {
		t.Fatal(err)
	}
	if err := old.Accept("sh:f0003:0001", []byte(`{"sweep":"f0003","worker":"w1","specs":1}`)); err != nil {
		t.Fatal(err)
	}
	old.Close()

	for boot := 1; boot <= 2; boot++ {
		j, err := openJournal("", storeDir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(legacy); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("boot %d: fleet.wal survived the boot: %v", boot, err)
		}
		coord := fleet.NewCoordinator(fleet.Options{Journal: j})
		n, err := coord.Recover()
		if err != nil || n != 1 {
			t.Fatalf("boot %d: Recover = %d, %v; want the one sweep", boot, n, err)
		}
		if st, err := coord.Status("f0003"); err != nil || st.State != "running" || st.Total != 1 {
			t.Fatalf("boot %d: sweep f0003 %+v, %v; want running with its 1 spec", boot, st, err)
		}
		pending, err := resilience.ReadJournal(wal)
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for id := range pending {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		if !reflect.DeepEqual(ids, []string{"fs:f0003"}) || !bytes.Equal(pending["fs:f0003"], sweepRec) {
			t.Fatalf("boot %d: journal.wal holds %v; want the sweep record alone", boot, ids)
		}
		// Kill: nothing retires the unfinished sweep.
		coord.Close()
		j.Close()
	}
}
