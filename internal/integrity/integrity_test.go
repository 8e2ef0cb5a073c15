package integrity

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"airshed/internal/core"
	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/sched"
	"airshed/internal/store"
)

func chaosSpec() scenario.Spec {
	return scenario.Spec{Dataset: "mini", Machine: "t3e", Nodes: 2, Hours: 2}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newSched(t *testing.T, st *store.Store) *sched.Scheduler {
	t.Helper()
	s := sched.New(sched.Options{Workers: 2, Store: st})
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s
}

func runJob(t *testing.T, s *sched.Scheduler, spec scenario.Spec) sched.JobStatus {
	t.Helper()
	sub, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	fin, err := s.Await(ctx, sub.ID)
	if err != nil {
		t.Fatalf("Await(%s): %v", sub.ID, err)
	}
	if fin.State != sched.Done {
		t.Fatalf("job %s state = %v (err %v)", sub.ID, fin.State, fin.Err)
	}
	return fin
}

// flipByte corrupts one byte of a stored artifact on disk, behind the
// store's back, and returns the corrupted bytes for later comparison
// against the quarantined copy.
func flipByte(t *testing.T, dir, key string, rng *rand.Rand) []byte {
	t.Helper()
	p := filepath.Join(dir, filepath.FromSlash(key))
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("read %s: %v", key, err)
	}
	data[rng.Intn(len(data))] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatalf("rewrite %s: %v", key, err)
	}
	return data
}

// checkpointKeys lists the stored checkpoint keys in listing order.
func checkpointKeys(t *testing.T, st *store.Store) []string {
	t.Helper()
	infos, err := st.ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, info := range infos {
		kind, _, err := store.SplitKey(info.Key)
		if err == nil && kind == store.KindCheckpoint {
			keys = append(keys, info.Key)
		}
	}
	if len(keys) == 0 {
		t.Fatal("run persisted no checkpoints")
	}
	return keys
}

// endCheckpointKey is where a run's Final lives: the checkpoint under its
// end-of-run physics-prefix hash, which every row of that physics is
// restored from.
func endCheckpointKey(spec scenario.Spec) string {
	n := spec.Normalize()
	return store.KindCheckpoint + "/" + n.PhysicsPrefixHash(n.EndHour()) + ".snap"
}

// restoreAll opens a fresh scheduler over st (an empty cache: only the
// store can answer) and requires every spec to come back as a store hit
// with the given Final.
func restoreAll(t *testing.T, st *store.Store, final []float64, specs ...scenario.Spec) {
	t.Helper()
	s := newSched(t, st)
	for _, spec := range specs {
		job, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if job.State != sched.Done || !job.FromStore {
			t.Errorf("%v: not restored from the store after the repair: %+v", spec, job)
		} else if !reflect.DeepEqual(job.Result.Final, final) {
			t.Errorf("%v: restored Final differs from baseline (determinism broken)", spec)
		}
	}
}

// TestCorruptionChaosRepair is the end-to-end integrity drill: flip one
// byte in the end-of-run checkpoint — where a stored result's Final lives
// — and in a seed-chosen checkpoint, run a scrub pass, and assert the rot
// is quarantined (never deleted), repaired by recompute, that the
// repaired artifacts are bit-identical to the uncorrupted originals, and
// that every row of the physics restores again. Three seeds vary which
// checkpoint rots and where the flipped bytes land.
func TestCorruptionChaosRepair(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			st := openStore(t, dir)
			s := newSched(t, st)

			base := runJob(t, s, chaosSpec())
			baseFinal := append([]float64(nil), base.Result.Final...)
			basePeaks := append([]float64(nil), base.Result.HourlyPeakO3...)
			other := chaosSpec() // a second pricing of the same physics
			other.Machine, other.Nodes = "paragon", 5
			if job := runJob(t, s, other); !job.PhysicsReplay {
				t.Fatalf("second pricing was not a replay: %+v", job)
			}

			ckKeys := checkpointKeys(t, st)
			ckKey := ckKeys[rng.Intn(len(ckKeys))]
			endKey := endCheckpointKey(chaosSpec())
			rowKey := "specs/" + base.Hash + ".spec"
			pristine := map[string][]byte{}
			for _, key := range []string{ckKey, endKey, rowKey} {
				data, err := st.Backend().Get(key)
				if err != nil {
					t.Fatalf("read pristine %s: %v", key, err)
				}
				pristine[key] = data
			}

			rotten := map[string][]byte{endKey: flipByte(t, dir, endKey, rng)}
			if ckKey != endKey {
				rotten[ckKey] = flipByte(t, dir, ckKey, rng)
			}

			sc := New(Options{Store: st, Interval: -1, Repair: s, RepairTimeout: 2 * time.Minute, Logf: t.Logf})
			sc.Pass(context.Background())
			c := sc.Counters()

			// Whichever rotten checkpoint the pass meets first resolves,
			// through a row naming its prefix, to a full cold recompute,
			// which rewrites every checkpoint — so by the time the pass
			// reaches the other it is healthy again. Exactly one
			// quarantine, one repair.
			if c.Quarantined != 1 {
				t.Errorf("Quarantined = %d, want 1", c.Quarantined)
			}
			if c.Repairs != 1 || c.RepairFailures != 0 {
				t.Errorf("Repairs = %d RepairFailures = %d, want 1/0", c.Repairs, c.RepairFailures)
			}

			// Quarantine preserves the rotten bytes — corruption is
			// evidence, never silently deleted.
			held := 0
			for key, bad := range rotten {
				qdata, err := os.ReadFile(filepath.Join(dir, "quarantine", filepath.FromSlash(key)))
				if err != nil {
					continue
				}
				held++
				if !bytes.Equal(qdata, bad) {
					t.Errorf("quarantined %s differs from the corrupted original", key)
				}
			}
			if held != 1 {
				t.Errorf("%d of the rotten checkpoints sit in quarantine, want 1", held)
			}

			// Everything the repair rewrote is bit-identical to what was
			// there before the rot: both checkpoints, and the row.
			for key, want := range pristine {
				if got, err := st.Backend().Get(key); err != nil || !bytes.Equal(got, want) {
					t.Errorf("repaired %s differs from the pristine original (err %v)", key, err)
				}
			}

			// The stored result — row joined with the repaired physics —
			// is the baseline again, for every pricing of it.
			res, ok := st.GetResult(base.Hash)
			if !ok {
				t.Fatal("repaired result missing from store")
			}
			if !reflect.DeepEqual(res.Final, baseFinal) {
				t.Error("repaired Final differs from baseline (determinism broken)")
			}
			if !reflect.DeepEqual(res.HourlyPeakO3, basePeaks) || res.PeakO3 != base.Result.PeakO3 {
				t.Error("repaired ozone peaks differ from baseline")
			}
			restoreAll(t, st, baseFinal, chaosSpec(), other)

			// A second pass over the healthy store is quiet.
			sc.Pass(context.Background())
			if c2 := sc.Counters(); c2.Quarantined != c.Quarantined || c2.Repairs != c.Repairs {
				t.Errorf("second pass not quiet: quarantined %d->%d repairs %d->%d",
					c.Quarantined, c2.Quarantined, c.Repairs, c2.Repairs)
			}
		})
	}
}

// TestResultSectionRotRepaired is the scrub drill with the flipped byte
// forced into each section of the end-of-run checkpoint, the artifact a
// stored result's Final is read from — its header and its raw float
// section — instead of wherever a seed lands it: both are quarantined
// intact and repaired bit-identically, and the row restores again.
func TestResultSectionRotRepaired(t *testing.T) {
	for _, section := range []string{"metadata", "floats"} {
		t.Run(section, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir)
			s := newSched(t, st)
			base := runJob(t, s, chaosSpec())
			baseFinal := append([]float64(nil), base.Result.Final...)

			endKey := endCheckpointKey(chaosSpec())
			p := filepath.Join(dir, filepath.FromSlash(endKey))
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			orig := bytes.Clone(data)
			// The snapshot is a header (magic, hour, dimensions, section tag
			// and length), then 8 bytes a float, then a 4-byte CRC.
			off := len(data) - 4*len(baseFinal)
			if section == "metadata" {
				off = len(data) - 4 - 8*len(baseFinal) - 1
			}
			data[off] ^= 0xff
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}

			sc := New(Options{Store: st, Interval: -1, Repair: s, RepairTimeout: 2 * time.Minute, Logf: t.Logf})
			sc.Pass(context.Background())
			if c := sc.Counters(); c.Quarantined != 1 || c.Repairs != 1 || c.RepairFailures != 0 {
				t.Errorf("Quarantined/Repairs/RepairFailures = %d/%d/%d, want 1/1/0", c.Quarantined, c.Repairs, c.RepairFailures)
			}
			qdata, err := os.ReadFile(filepath.Join(dir, "quarantine", filepath.FromSlash(endKey)))
			if err != nil || !bytes.Equal(qdata, data) {
				t.Errorf("rotten checkpoint not preserved in quarantine (err %v)", err)
			}
			if got, err := os.ReadFile(p); err != nil || !bytes.Equal(got, orig) {
				t.Errorf("repaired checkpoint not bit-identical to the original (err %v)", err)
			}
			res, ok := st.GetResult(base.Hash)
			if !ok || !reflect.DeepEqual(res.Final, baseFinal) || res.PeakO3 != base.Result.PeakO3 {
				t.Error("repaired result missing or not bit-identical to the baseline")
			}
			restoreAll(t, st, baseFinal, chaosSpec())
		})
	}
}

// A rotten row is quarantine-only: nothing is recomputed, its spec is a
// miss, and the next submission reprices the physics still on record and
// writes the row back byte for byte.
func TestRottenRowQuarantinedThenRewrittenBySubmission(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := newSched(t, st)
	base := runJob(t, s, chaosSpec())
	rowKey := "specs/" + base.Hash + ".spec"
	orig, err := st.Backend().Get(rowKey)
	if err != nil {
		t.Fatal(err)
	}
	rotten := flipByte(t, dir, rowKey, rand.New(rand.NewSource(7)))

	sc := New(Options{Store: st, Interval: -1, Repair: s, RepairTimeout: 2 * time.Minute, Logf: t.Logf})
	sc.Pass(context.Background())
	if c := sc.Counters(); c.Quarantined != 1 || c.Repairs != 0 || c.RepairFailures != 0 {
		t.Errorf("Quarantined/Repairs/RepairFailures = %d/%d/%d, want 1/0/0", c.Quarantined, c.Repairs, c.RepairFailures)
	}
	if q, err := os.ReadFile(filepath.Join(dir, "quarantine", filepath.FromSlash(rowKey))); err != nil || !bytes.Equal(q, rotten) {
		t.Errorf("rotten row not preserved in quarantine (err %v)", err)
	}
	if _, ok := st.GetResult(base.Hash); ok {
		t.Error("a result was served with its row in quarantine")
	}

	again := runJob(t, newSched(t, st), chaosSpec())
	if again.FromStore || !again.PhysicsReplay || !reflect.DeepEqual(again.Result, base.Result) {
		t.Errorf("resubmission with the row gone: want a replay of the stored physics equal to the first run, got %+v", again)
	}
	if got, err := st.Backend().Get(rowKey); err != nil || !bytes.Equal(got, orig) {
		t.Errorf("rewritten row is not byte-identical to the original (err %v)", err)
	}
}

// TestCheckpointRepairViaManifest corrupts only a checkpoint — whose
// name is a physics-prefix hash, not a spec hash — and asserts the
// scrubber resolves it back to its producing spec through the stored
// manifests, repairs it, and that warm starts from the repaired
// artifacts still reproduce a cold run bit for bit.
func TestCheckpointRepairViaManifest(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dir := t.TempDir()
	st := openStore(t, dir)
	s := newSched(t, st)

	runJob(t, s, chaosSpec())

	ckKeys := checkpointKeys(t, st)
	ckKey := ckKeys[rng.Intn(len(ckKeys))]
	origCk, err := st.Backend().Get(ckKey)
	if err != nil {
		t.Fatal(err)
	}
	corruptCk := flipByte(t, dir, ckKey, rng)

	sc := New(Options{Store: st, Interval: -1, Repair: s, RepairTimeout: 2 * time.Minute, Logf: t.Logf})
	sc.Pass(context.Background())
	c := sc.Counters()
	if c.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", c.Quarantined)
	}
	if c.Repairs != 1 || c.RepairFailures != 0 {
		t.Errorf("Repairs = %d RepairFailures = %d, want 1/0", c.Repairs, c.RepairFailures)
	}

	qdata, err := os.ReadFile(filepath.Join(dir, "quarantine", filepath.FromSlash(ckKey)))
	if err != nil {
		t.Fatalf("quarantined checkpoint missing: %v", err)
	}
	if !bytes.Equal(qdata, corruptCk) {
		t.Error("quarantined checkpoint bytes differ from the corrupted original")
	}
	gotCk, err := st.Backend().Get(ckKey)
	if err != nil {
		t.Fatalf("read repaired checkpoint: %v", err)
	}
	if !bytes.Equal(gotCk, origCk) {
		t.Error("repaired checkpoint differs from pristine original")
	}

	// Warm-start usability: a longer run resumes from the repaired
	// checkpoint and matches a cold run exactly.
	longer := chaosSpec()
	longer.Hours = 3
	warm := runJob(t, s, longer)
	if warm.WarmStartHour == 0 {
		t.Error("longer run did not warm-start from the repaired artifacts")
	}

	coldSched := newSched(t, openStore(t, t.TempDir()))
	cold := runJob(t, coldSched, longer)
	if !reflect.DeepEqual(warm.Result.Final, cold.Result.Final) {
		t.Error("warm-started result from repaired checkpoint differs from cold run")
	}
}

// TestScrubFaultSkipsNeverQuarantines fires the store.scrub fault point
// on every artifact: an unreadable artifact must be skipped and retried
// next pass, never quarantined — healthy bytes stay served.
func TestScrubFaultSkipsNeverQuarantines(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.PutResult("aa11", &core.Result{Final: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}

	inj := resilience.New(9).Set(resilience.PointStoreScrub, 1)
	resilience.Enable(inj)
	sc := New(Options{Store: st, Interval: -1})
	sc.Pass(context.Background())
	resilience.Disable()

	c := sc.Counters()
	if c.Skipped == 0 {
		t.Error("injected read faults produced no skips")
	}
	if c.Quarantined != 0 || c.Artifacts != 0 {
		t.Errorf("faulted pass quarantined %d / verified %d artifacts, want 0/0", c.Quarantined, c.Artifacts)
	}
	if _, ok := st.GetResult("aa11"); !ok {
		t.Error("healthy artifact lost after faulted scrub pass")
	}

	// With the faults gone the next pass verifies everything.
	sc.Pass(context.Background())
	if c := sc.Counters(); c.Artifacts == 0 || c.Quarantined != 0 {
		t.Errorf("clean pass: Artifacts = %d Quarantined = %d, want >0/0", c.Artifacts, c.Quarantined)
	}
}
