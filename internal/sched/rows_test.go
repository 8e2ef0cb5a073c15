package sched

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"airshed/internal/resilience"
	"airshed/internal/scenario"
	"airshed/internal/store"
)

// A completed run is a row plus the physics it names (warm.go). These
// tests pin the two promises that split makes: a crash between any two
// writes of a job loses work, never correctness, and a directory written
// before rows existed still answers.

// dyingBackend is a MemBackend whose process dies after a set number of
// writes: every later Put is lost. The job in flight runs on regardless —
// store writes are best-effort — but nothing it does reaches the backend,
// which is all a kill means to the next process.
type dyingBackend struct {
	*store.MemBackend
	mu   sync.Mutex
	left int // writes until death; negative: immortal
	puts []string
}

func (b *dyingBackend) Put(key string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.left == 0 {
		return errors.New("backend: process killed")
	}
	if b.left > 0 {
		b.left--
	}
	b.puts = append(b.puts, key)
	return b.MemBackend.Put(key, data)
}

// runOn runs spec to completion on a fresh store and scheduler over b.
func runOn(t *testing.T, b store.Backend, spec scenario.Spec) JobStatus {
	t.Helper()
	st, err := store.OpenBackend(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	return runOne(t, st, spec)
}

// physicsWhole reports whether b holds what spec's row needs to become a
// result again: every hour's record and the end-of-run checkpoint.
func physicsWhole(b store.Backend, spec scenario.Spec) bool {
	n := spec.Normalize()
	for h := n.StartHour + 1; h <= n.EndHour(); h++ {
		if _, err := b.Get(store.KindRecord + "/" + n.PhysicsPrefixHash(h) + ".rec"); err != nil {
			return false
		}
	}
	_, err := b.Get(store.KindCheckpoint + "/" + n.PhysicsPrefixHash(n.EndHour()) + ".snap")
	return err == nil
}

// ROADMAP 6(c) for the store boundaries of one job: kill the process
// after each of its store writes in turn (every one fires
// PointStoreWrite), reopen what survived, resubmit. Whatever k, the answer
// is the reference run's bit for bit; it is a store hit only once the
// row and all its physics made it, and the row is the last thing written,
// so a surviving row never lacks its physics.
func TestKillAfterEveryStoreWrite(t *testing.T) {
	spec := physSpec()
	hash := spec.Normalize().Hash()
	rowKey := store.KindSpec + "/" + hash + ".spec"

	inj := resilience.New(1).Set(resilience.PointStoreWrite, 0) // counts, never fires
	resilience.Enable(inj)
	whole := &dyingBackend{MemBackend: store.NewMemBackend(), left: -1}
	ref := runOn(t, whole, spec)
	resilience.Disable()
	n := len(whole.puts)
	if n != 5 || whole.puts[n-1] != rowKey || uint64(n) != inj.Calls(resilience.PointStoreWrite) {
		t.Fatalf("one 2-hour job wrote %v through %d store.write fires; want 2 checkpoints, 2 records, then the row",
			whole.puts, inj.Calls(resilience.PointStoreWrite))
	}

	for k := 0; k <= n; k++ {
		b := &dyingBackend{MemBackend: store.NewMemBackend(), left: k}
		if fin := runOn(t, b, spec); fin.State != Done {
			t.Fatalf("k=%d: the dying process's job ended %s: %v", k, fin.State, fin.Err)
		}
		b.left = -1 // the next process writes normally
		_, rowErr := b.Get(rowKey)
		if rowErr == nil && !physicsWhole(b, spec) {
			t.Errorf("k=%d: the row survived without its physics (wrote %v)", k, b.puts)
		}
		again := runOn(t, b, spec)
		// Final bit for bit, and ledger and everything else with it.
		if again.State != Done || finalSHA(again.Result.Final) != finalSHA(ref.Result.Final) || !reflect.DeepEqual(again.Result, ref.Result) {
			t.Errorf("k=%d: resubmission after the kill differs from the reference run: %+v", k, again)
		}
		if again.FromStore != (k == n) {
			t.Errorf("k=%d of %d writes survived: FromStore=%v (row present: %v)", k, n, again.FromStore, rowErr == nil)
		}
		// Whatever was missing has been written again.
		if final := runOn(t, b, spec); !final.FromStore || !reflect.DeepEqual(final.Result, ref.Result) {
			t.Errorf("k=%d: third process not served from the store: %+v", k, final)
		}
	}

	// The other way a row loses its physics: any one artifact goes (GC,
	// quarantine). The row is then a miss, unless it never needed that one.
	for i, key := range whole.puts[:n-1] {
		b := &dyingBackend{MemBackend: store.NewMemBackend(), left: -1}
		for _, k := range whole.puts {
			data, err := whole.Get(k)
			if err == nil && k != key {
				err = b.MemBackend.Put(k, data)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		again := runOn(t, b, spec)
		needed := key != store.KindCheckpoint+"/"+spec.Normalize().PhysicsPrefixHash(1)+".snap"
		if again.FromStore == needed || !reflect.DeepEqual(again.Result, ref.Result) {
			t.Errorf("artifact %d (%s) dropped: FromStore=%v, want %v, and the reference result", i, key, again.FromStore, !needed)
		}
	}
}

// A directory laid out by the commit before rows — a whole AIRSRES2 frame
// per result, a manifest with spec and prefixes but no pricing — restores
// as store hits, and so do the two older result encodings; none of them
// needs physics in the store.
func TestParentLayoutRestoresAsStoreHits(t *testing.T) {
	spec := miniSpec() // what every fixture below is a result of
	hash := spec.Normalize().Hash()
	fresh := runOn(t, store.NewMemBackend(), spec)
	manifest, err := os.ReadFile(filepath.Join("..", "store", "testdata", "manifest_unpriced.spec"))
	if err != nil {
		t.Fatal(err)
	}

	// The parent's writer is today's PutResult, byte for byte.
	parent := store.NewMemBackend()
	pst, err := store.OpenBackend(parent, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := pst.PutResult(hash, fresh.Result); err != nil {
		t.Fatal(err)
	}
	whole, err := parent.Get(store.KindResult + "/" + hash + ".res")
	if err != nil {
		t.Fatal(err)
	}

	for name, files := range map[string]map[string][]byte{
		"parent commit":                       {"results": whole, "specs": manifest},
		"AIRSTOR1":                            {"results": fixture(t, "result_v1.res")},
		"deflated AIRSRES2 beside a manifest": {"results": fixture(t, "result_v2_deflate.res"), "specs": manifest},
	} {
		dir := t.TempDir()
		for kind, data := range files {
			ext := map[string]string{"results": ".res", "specs": ".spec"}[kind]
			if err := os.MkdirAll(filepath.Join(dir, kind), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, kind, hash+ext), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st := openStore(t, dir)
		s := New(Options{Workers: 1, Store: st})
		job := mustSubmit(t, s, spec)
		if job.State != Done || !job.FromStore || !job.Cached {
			t.Errorf("%s: not a store hit: %+v", name, job)
		} else {
			assertEquivalent(t, name, job, fresh)
			if finalSHA(job.Result.Final) != finalSHA(fresh.Result.Final) {
				t.Errorf("%s: sha256(Final) differs from a fresh run's", name)
			}
		}
		if c := s.Counters(); c.StoreHits != 1 || c.CacheMisses != 0 {
			t.Errorf("%s: counters %+v", name, c)
		}
		shutdown(t, s)
		if c := st.Counters(); c.Corrupt != 0 || c.Quarantined != 0 {
			t.Errorf("%s: store counters %+v", name, c)
		}
		if _, err := os.Stat(filepath.Join(dir, "results", hash+".res")); err != nil {
			t.Errorf("%s: the whole frame did not stay where it was: %v", name, err)
		}
	}
}

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "store", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}
