package sched

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"airshed/internal/core"
	"airshed/internal/integrity"
	"airshed/internal/machine"
	"airshed/internal/scenario"
	"airshed/internal/store"
)

// The first rung of the resolution ladder: a wholesale replay served from
// a cached result of the same physics (cache.go, executeStored) must be
// indistinguishable from the store-resolved replay it replaces, must not
// touch the donor, and must stand aside for repairs.

// physSpec is the seed of these tests: two mini hours.
func physSpec() scenario.Spec {
	s := miniSpec()
	s.Hours = 2
	return s
}

func finalSHA(final []float64) [sha256.Size]byte {
	buf := make([]byte, 8*len(final))
	for i, x := range final {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	return sha256.Sum256(buf)
}

// copyDir copies a store directory tree.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// replayOf submits spec, waits, and requires a wholesale physics replay.
func replayOf(t *testing.T, s *Scheduler, spec scenario.Spec) ([]HourEvent, JobStatus) {
	t.Helper()
	events, fin := watchAll(t, s, mustSubmit(t, s, spec).ID)
	if fin.State != Done || !fin.PhysicsReplay || fin.WarmStartHour != spec.EndHour() || fin.Cached {
		t.Fatalf("%v: want a wholesale replay ending at hour %d, got %+v", spec, spec.EndHour(), fin)
	}
	return events, fin
}

func TestCachedPhysicsReplayEqualsStoreReplay(t *testing.T) {
	seeded := t.TempDir()
	runOne(t, openStore(t, seeded), physSpec())

	// The donor scheduler keeps the seed's result cached; every variant
	// below resolves from it.
	dir := t.TempDir()
	copyDir(t, seeded, dir)
	st := openStore(t, dir)
	s := New(Options{Workers: 1, Store: st})
	defer shutdown(t, s)
	if seed := mustSubmit(t, s, physSpec()); !seed.FromStore {
		t.Fatalf("seed not served from the store: %+v", seed)
	}

	for _, m := range []string{"t3e", "t3d", "paragon"} {
		for _, mode := range []string{scenario.ModeData, scenario.ModeTask} {
			spec := physSpec()
			spec.Machine, spec.Mode, spec.Nodes = m, mode, 5
			name := m + "/" + mode

			before := st.Counters()
			gotEvents, got := replayOf(t, s, spec)
			after := st.Counters()
			if after.Hits != before.Hits {
				t.Errorf("%s: cached replay read %d artifacts from the store, want 0", name, after.Hits-before.Hits)
			}

			// The same spec in a fresh process over the seeded store: no
			// cache, so records and checkpoint come from disk.
			fdir := t.TempDir()
			copyDir(t, seeded, fdir)
			fst := openStore(t, fdir)
			fs := New(Options{Workers: 1, Store: fst})
			wantEvents, want := replayOf(t, fs, spec)
			shutdown(t, fs)
			if c := fst.Counters(); c.Hits != 3 { // two records, one checkpoint
				t.Errorf("%s: store-resolved replay booked %d hits, want 3", name, c.Hits)
			}

			g, w := got.Result, want.Result
			for _, f := range []struct {
				field     string
				got, want any
			}{
				{"Ledger", g.Ledger, w.Ledger},
				{"NodeUtilization", g.NodeUtilization, w.NodeUtilization},
				{"Efficiency", g.Efficiency, w.Efficiency},
				{"CommSeconds", g.CommSeconds, w.CommSeconds},
				{"RedistCounts", g.RedistCounts, w.RedistCounts},
				{"HourlyPeakO3", g.HourlyPeakO3, w.HourlyPeakO3},
				{"HourlyPeakCell", g.HourlyPeakCell, w.HourlyPeakCell},
				{"PeakO3", g.PeakO3, w.PeakO3},
				{"PeakO3Cell", g.PeakO3Cell, w.PeakO3Cell},
				{"TotalSteps", g.TotalSteps, w.TotalSteps},
				{"Trace", g.Trace, w.Trace},
				{"sha256(Final)", finalSHA(g.Final), finalSHA(w.Final)},
				{"hour events", gotEvents, wantEvents},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s: %s differs:\n cached %v\n stored %v", name, f.field, f.got, f.want)
				}
			}
			if len(gotEvents) != spec.Hours || !gotEvents[0].Stored {
				t.Errorf("%s: stream %+v, want %d stored hours", name, gotEvents, spec.Hours)
			}
		}
	}
	if c := s.Counters(); c.PhysicsReplays != 6 || c.StoreHits != 1 || c.WarmStarts != 0 {
		t.Errorf("counters: %+v", c)
	}
}

// Twenty replays in flight on four workers share the donor's Final while
// each is written to the store; the donor's bits must not move, and what
// was written must read back. Under -race this is the sharing check.
func TestCachedPhysicsReplayNeverWritesDonor(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := New(Options{Workers: 4, Store: st})
	defer shutdown(t, s)
	donor := awaitDone(t, s, mustSubmit(t, s, physSpec()).ID).Result
	sum := finalSHA(donor.Final)

	var specs []scenario.Spec
	var ids []string
	for nodes := 3; nodes < 23; nodes++ {
		spec := physSpec()
		spec.Nodes = nodes
		specs = append(specs, spec)
		ids = append(ids, mustSubmit(t, s, spec).ID)
	}
	for i, id := range ids {
		fin := awaitDone(t, s, id)
		if fin.State != Done || !fin.PhysicsReplay {
			t.Fatalf("%v: not a physics replay: %+v", specs[i], fin)
		}
		if &fin.Result.Final[0] != &donor.Final[0] {
			t.Fatalf("%v: replay copied Final instead of sharing the donor's", specs[i])
		}
		stored, ok := st.GetResult(specs[i].Hash())
		if !ok || finalSHA(stored.Final) != sum || stored.Ledger.Total != fin.Result.Ledger.Total {
			t.Fatalf("%v: stored replay does not read back", specs[i])
		}
	}
	if finalSHA(donor.Final) != sum {
		t.Error("the donor's Final changed under 20 replays")
	}
}

// A replayed result shares Final and the trace's step records with its
// donor, so the byte cap charges them once per physics: two hundred
// pricings of one run fit a cache that holds a dozen whole results, the
// donor among them, and the gauge reads one physics plus two hundred rows.
func TestReplaysChargeTheirPhysicsOnce(t *testing.T) {
	donor := New(Options{Workers: 1})
	res := awaitDone(t, donor, mustSubmit(t, donor, physSpec()).ID).Result
	shutdown(t, donor)
	own, shared := approxResultBytes(res)
	if shared < 10*own {
		t.Fatalf("mini result: %d own bytes, %d shared; the test assumes the physics dominates", own, shared)
	}

	st, err := store.OpenBackend(store.NewMemBackend(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 2, Store: st, CacheEntries: 256, CacheBytes: 12 * (own + shared)})
	defer shutdown(t, s)
	awaitDone(t, s, mustSubmit(t, s, physSpec()).ID)
	var ids []string
	for nodes := 3; len(ids) < 200; nodes++ {
		for _, m := range []string{"t3e", "t3d", "paragon"} {
			for _, mode := range []string{scenario.ModeData, scenario.ModeTask} {
				spec := physSpec()
				spec.Machine, spec.Nodes, spec.Mode = m, nodes, mode
				ids = append(ids, mustSubmit(t, s, spec).ID)
			}
		}
		for _, id := range ids[len(ids)-6:] {
			if fin := awaitDone(t, s, id); !fin.PhysicsReplay {
				t.Fatalf("not a physics replay: %+v", fin)
			}
		}
	}
	c := s.Counters()
	rows := int64(c.CacheEntries) * 2 * own // utilization grows with the node count
	if c.Evictions != 0 || c.CacheEntries != len(ids)+1 || c.CacheBytes < shared || c.CacheBytes > shared+rows {
		t.Errorf("after %d replays: %d evictions, %d entries, %d bytes; want 0, %d, between %d and %d",
			len(ids), c.Evictions, c.CacheEntries, c.CacheBytes, len(ids)+1, shared, shared+rows)
	}
	if hit := mustSubmit(t, s, physSpec()); !hit.Cached {
		t.Errorf("the donor was evicted by its own replays: %+v", hit)
	}

	// A second copy of the same physics shares nothing and pays in full;
	// evicting entries gives back exactly what they were charged.
	cache := newResultCache(2, 0)
	copied := *res
	copied.Final = append([]float64(nil), res.Final...)
	cache.put("a", "p", res)
	cache.put("b", "p", &copied)
	if want := 2 * (own + shared); cache.bytes != want {
		t.Errorf("two unshared results charged %d bytes, want %d", cache.bytes, want)
	}
	cache.put("c", "q", res)
	cache.put("d", "q", res)
	if cache.bytes != 2*own+shared || cache.getPhysics("p") != nil || len(cache.physics) != 1 {
		t.Errorf("after eviction: %d bytes (want %d), physics index %v", cache.bytes, 2*own+shared, cache.physics)
	}
}

func blobCount(t *testing.T, st *store.Store) map[string]int {
	t.Helper()
	infos, err := st.ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, info := range infos {
		kind, _, _ := store.SplitKey(info.Key)
		n[kind]++
	}
	return n
}

// A repair never consults cached physics: it simulates cold and rewrites
// every artifact, even with a donor in the cache.
func TestRecomputeIgnoresCachedPhysics(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := New(Options{Workers: 1, Store: st})
	defer shutdown(t, s)
	base := awaitDone(t, s, mustSubmit(t, s, physSpec()).ID)

	infos, err := st.ListBlobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if err := st.DeleteBlob(info.Key); err != nil {
			t.Fatal(err)
		}
	}
	spec := physSpec()
	spec.Nodes = 5 // same physics as the cached donor
	re, err := s.Recompute(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := awaitDone(t, s, re.ID)
	if fin.State != Done || fin.PhysicsReplay || fin.WarmStartHour != 0 || fin.Cached {
		t.Fatalf("repair did not run cold: %+v", fin)
	}
	if finalSHA(fin.Result.Final) != finalSHA(base.Result.Final) {
		t.Error("recomputed Final differs from the original run")
	}
	want := map[string]int{store.KindRecord: 2, store.KindCheckpoint: 2, store.KindSpec: 1}
	if got := blobCount(t, st); !reflect.DeepEqual(got, want) {
		t.Errorf("artifacts after the repair: %v, want %v", got, want)
	}
	if c := s.Counters(); c.Repairs != 1 || c.PhysicsReplays != 0 {
		t.Errorf("counters: %+v", c)
	}
}

// The physics key leaves the index with its entry: once the donor is
// evicted the next replay resolves through the store again, and the
// result it caches is the next donor.
func TestEvictedDonorFallsBackToStore(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := New(Options{Workers: 1, Store: st, CacheEntries: 1})
	defer shutdown(t, s)
	awaitDone(t, s, mustSubmit(t, s, miniSpec()).ID)
	other := miniSpec()
	other.StartHour = 5 // different physics: evicts the donor
	awaitDone(t, s, mustSubmit(t, s, other).ID)
	if c := s.Counters(); c.CacheEntries != 1 || c.Evictions != 1 {
		t.Fatalf("counters: %+v", c)
	}

	before := st.Counters().Hits
	replayOf(t, s, variant(5))
	if d := st.Counters().Hits - before; d != 2 { // one record, one checkpoint
		t.Errorf("replay after the eviction booked %d store hits, want 2", d)
	}
	before = st.Counters().Hits
	replayOf(t, s, variant(6))
	if d := st.Counters().Hits - before; d != 0 {
		t.Errorf("replay with a fresh donor booked %d store hits, want 0", d)
	}
}

// A cached result under the right physics key but of another array shape
// (a colliding key, a mislabelled entry) is refused like a checkpoint of
// the wrong dimensions: the store arbitrates.
func TestCachedPhysicsOfAnotherShapeRefused(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := New(Options{Workers: 1, Store: st})
	defer shutdown(t, s)
	seed := awaitDone(t, s, mustSubmit(t, s, miniSpec()).ID)

	wrong := *seed.Result
	tr := *wrong.Trace
	tr.Shape.Cells++
	wrong.Trace = &tr
	wrong.Final = append(append([]float64(nil), wrong.Final...), make([]float64, tr.Shape.Species*tr.Shape.Layers)...)
	s.mu.Lock()
	s.cache.put("not-a-real-hash", physicsKey(miniSpec()), &wrong)
	s.mu.Unlock()

	before := st.Counters().Hits
	_, fin := replayOf(t, s, variant(5))
	if d := st.Counters().Hits - before; d != 2 {
		t.Errorf("replay booked %d store hits, want 2 (the mis-shaped donor must be refused)", d)
	}
	if finalSHA(fin.Result.Final) != finalSHA(seed.Result.Final) {
		t.Error("replay took Final from the mis-shaped donor")
	}
}

// Chaos: the end-of-run checkpoint rots on disk while its physics is
// cached. The replay never reads it and is still correct; the scrubber
// still finds, quarantines and repairs it bit-identically.
func TestCachedReplayOverRottenCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Options{Workers: 1, Store: st})
	defer shutdown(t, s)
	seed := awaitDone(t, s, mustSubmit(t, s, physSpec()).ID)

	key := store.KindCheckpoint + "/" + physicsKey(physSpec()) + ".snap"
	path := filepath.Join(dir, filepath.FromSlash(key))
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rotten := append([]byte(nil), orig...)
	rotten[len(rotten)/2] ^= 0x10
	if err := os.WriteFile(path, rotten, 0o644); err != nil {
		t.Fatal(err)
	}

	spec := physSpec()
	spec.Machine, spec.Nodes, spec.Mode = "paragon", 7, scenario.ModeTask
	_, fin := replayOf(t, s, spec)
	if finalSHA(fin.Result.Final) != finalSHA(seed.Result.Final) {
		t.Error("replay over the rotten checkpoint has the wrong Final")
	}
	prof, err := machine.ByName(spec.Machine)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Replay(seed.Result.Trace, prof, spec.Nodes, core.TaskParallel)
	if err != nil {
		t.Fatal(err)
	}
	if got := fin.Result.Ledger.Total; got != want.Ledger.Total {
		t.Errorf("replay priced %v virtual seconds, core.Replay of the seed trace gives %v", got, want.Ledger.Total)
	}
	if c := st.Counters(); c.Corrupt != 0 {
		t.Errorf("the cached replay read the checkpoint: %+v", c)
	}

	sc := integrity.New(integrity.Options{Store: st, Interval: -1, Repair: s, RepairTimeout: 2 * time.Minute, Logf: t.Logf})
	sc.Pass(context.Background())
	if c := sc.Counters(); c.Quarantined != 1 || c.Repairs != 1 || c.RepairFailures != 0 {
		t.Errorf("scrub counters: %+v", c)
	}
	if q, err := os.ReadFile(filepath.Join(dir, "quarantine", filepath.FromSlash(key))); err != nil || !bytes.Equal(q, rotten) {
		t.Errorf("quarantined checkpoint missing or altered (err=%v)", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, orig) {
		t.Errorf("repaired checkpoint is not bit-identical to the original (err=%v)", err)
	}
}

// BenchmarkPhysicsReplay times the replay path end to end on a memory
// backend: seed one mini run, then resolve b.N distinct machine / node /
// mode variants of its physics (Submit, lookup, core.Replay, PutManifest).
// -benchmem shows the path's allocation profile.
func BenchmarkPhysicsReplay(b *testing.B) {
	var specs []scenario.Spec
	for nodes := 3; nodes < 43; nodes++ {
		for _, m := range []string{"t3e", "t3d", "paragon"} {
			for _, mode := range []string{scenario.ModeData, scenario.ModeTask} {
				spec := miniSpec()
				spec.Machine, spec.Nodes, spec.Mode = m, nodes, mode
				specs = append(specs, spec)
			}
		}
	}
	var s *Scheduler
	seed := func() {
		if s != nil {
			s.Shutdown(context.Background())
		}
		st, err := store.OpenBackend(store.NewMemBackend(), 0)
		if err != nil {
			b.Fatal(err)
		}
		s = New(Options{Workers: 1, Store: st})
		js, err := s.Submit(miniSpec())
		if err == nil {
			_, err = s.Await(context.Background(), js.ID)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%len(specs) == 0 {
			// Out of distinct variants: start over on an empty store.
			b.StopTimer()
			seed()
			b.StartTimer()
		}
		js, err := s.Submit(specs[i%len(specs)])
		if err != nil {
			b.Fatal(err)
		}
		fin, err := s.Await(context.Background(), js.ID)
		if err != nil || !fin.PhysicsReplay {
			b.Fatalf("not a physics replay: %+v (err %v)", fin, err)
		}
	}
	b.StopTimer()
	s.Shutdown(context.Background())
}
