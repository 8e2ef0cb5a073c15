package sched

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"airshed/internal/core"
	"airshed/internal/scenario"
	"airshed/internal/store"
)

// countingBackend is a MemBackend that counts writes per artifact kind, and
// outlives the stores opened over it — a "restart" is a fresh store and
// scheduler over the same backend.
type countingBackend struct {
	*store.MemBackend
	mu   sync.Mutex
	puts map[string]int
}

func (b *countingBackend) Put(key string, data []byte) error {
	kind, _, _ := store.SplitKey(key)
	b.mu.Lock()
	b.puts[kind]++
	b.mu.Unlock()
	return b.MemBackend.Put(key, data)
}

// wrote returns the writes per kind since the last call, so a step that
// does not ask leaves its writes to the next one that does.
func (b *countingBackend) wrote() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.puts
	b.puts = map[string]int{}
	return out
}

// outcomes is the slice of Counters one submission can move.
type outcomes struct {
	Submitted, CacheHits, StoreHits, Coalesced, CacheMisses, Rejected uint64
	PhysicsReplays, WarmStarts, Repairs                               uint64
}

func outcomesOf(c Counters) outcomes {
	return outcomes{c.Submitted, c.CacheHits, c.StoreHits, c.Coalesced, c.CacheMisses, c.Rejected,
		c.PhysicsReplays, c.WarmStarts, c.Repairs}
}

func (a outcomes) minus(b outcomes) outcomes {
	return outcomes{a.Submitted - b.Submitted, a.CacheHits - b.CacheHits, a.StoreHits - b.StoreHits,
		a.Coalesced - b.Coalesced, a.CacheMisses - b.CacheMisses, a.Rejected - b.Rejected,
		a.PhysicsReplays - b.PhysicsReplays, a.WarmStarts - b.WarmStarts, a.Repairs - b.Repairs}
}

// TestEveryOutcomeInOrder walks one physics through every way a submission
// can resolve, on a store-backed scheduler with one worker and one queue
// slot, and checks after each step the counter partition documented on
// Counters, the counters the step must move, the finished job's
// provenance flags, the artifacts written, and the event stream.
func TestEveryOutcomeInOrder(t *testing.T) {
	backend := &countingBackend{MemBackend: store.NewMemBackend(), puts: map[string]int{}}
	open := func() *Scheduler {
		st, err := store.OpenBackend(backend, 0)
		if err != nil {
			t.Fatal(err)
		}
		return New(Options{Workers: 1, QueueDepth: 1, Store: st})
	}
	s := open()
	defer func() { shutdown(t, s) }()

	base := physSpec() // mini, hours 0-1
	nodes := func(n int) scenario.Spec {
		sp := base
		sp.Nodes = n
		return sp
	}
	long := base
	long.Hours = 3
	submit := func(spec scenario.Spec) func() (JobStatus, error) {
		return func() (JobStatus, error) { return s.Submit(spec) }
	}
	var coldID, queuedID string
	// executed[hash] is the result a job computed (or replayed) for a spec;
	// a later store hit on the same spec must hand back its equal.
	executed := map[string]*core.Result{}
	// key is the backend key of one of base's physics artifacts.
	key := func(kind, ext string, hour int) string {
		return kind + "/" + base.Normalize().PhysicsPrefixHash(hour) + ext
	}

	// finished is what a step's job must look like once done; nil for steps
	// that leave their job in flight (or have none).
	type finished struct {
		cached, fromStore, replay bool
		warmHour                  int
		stored                    []bool // per hour event
		attempt                   int    // of every hour event
	}
	simulated := []bool{false, false}
	served := []bool{true, true}
	steps := []struct {
		name    string
		restart bool // a fresh store and scheduler over the same backend first
		do      func() (JobStatus, error)
		err     error
		moved   outcomes
		wrote   map[string]int
		want    *finished
		restore bool // the job's result must equal the executed one, bit for bit
	}{
		{name: "cold (enqueued)", do: func() (JobStatus, error) {
			st, err := s.Submit(base)
			coldID = st.ID
			// Hold on until the worker has taken it: the one queue slot
			// must be free for the next step.
			for deadline := time.Now().Add(time.Minute); err == nil && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if cur, _ := s.Status(st.ID); cur.State != Queued {
					break
				}
			}
			return st, err
		}, moved: outcomes{Submitted: 1, CacheMisses: 1}},
		{name: "same physics queued behind it", do: func() (JobStatus, error) {
			st, err := s.Submit(nodes(3))
			queuedID = st.ID
			return st, err
		}, moved: outcomes{Submitted: 1, CacheMisses: 1}},
		{name: "coalesced", do: func() (JobStatus, error) {
			st, err := s.Submit(nodes(3))
			if err == nil && st.ID != queuedID {
				t.Errorf("coalesced onto %s, want the queued twin %s", st.ID, queuedID)
			}
			return st, err
		}, moved: outcomes{Submitted: 1, Coalesced: 1}},
		{name: "rejected", do: submit(nodes(4)), err: ErrQueueFull,
			moved: outcomes{Submitted: 1, Rejected: 1}},
		// The queue drains: the cold run, then its queued sibling as a
		// replay of the physics the cold run just cached.
		{name: "cold (finished)", do: func() (JobStatus, error) {
			queued := awaitDone(t, s, queuedID)
			executed[queued.Hash] = queued.Result
			return s.Status(coldID)
		}, moved: outcomes{PhysicsReplays: 1},
			wrote: map[string]int{store.KindRecord: 2, store.KindCheckpoint: 2, store.KindSpec: 2},
			want:  &finished{stored: simulated, attempt: 1}},
		{name: "cache hit", do: submit(base),
			moved: outcomes{Submitted: 1, CacheHits: 1},
			want:  &finished{cached: true, stored: served}},
		{name: "cached-physics replay", do: submit(nodes(6)),
			moved: outcomes{Submitted: 1, CacheMisses: 1, PhysicsReplays: 1},
			wrote: map[string]int{store.KindSpec: 1},
			want:  &finished{replay: true, warmHour: 2, stored: served, attempt: 1}},
		{name: "stored-physics replay", restart: true, do: submit(nodes(7)),
			moved: outcomes{Submitted: 1, CacheMisses: 1, PhysicsReplays: 1},
			wrote: map[string]int{store.KindSpec: 1},
			want:  &finished{replay: true, warmHour: 2, stored: served, attempt: 1}},
		// Row + held physics: the first restore reads records and the
		// end-of-run checkpoint, the second takes them from the first.
		{name: "store hit after restart", do: submit(base),
			moved: outcomes{Submitted: 1, StoreHits: 1}, restore: true,
			want: &finished{cached: true, fromStore: true, stored: served}},
		{name: "store hit sharing the cached physics", do: submit(nodes(6)),
			moved: outcomes{Submitted: 1, StoreHits: 1}, restore: true,
			want: &finished{cached: true, fromStore: true, stored: served}},
		{name: "warm start", do: submit(long),
			moved: outcomes{Submitted: 1, CacheMisses: 1, WarmStarts: 1},
			wrote: map[string]int{store.KindRecord: 1, store.KindCheckpoint: 1, store.KindSpec: 1},
			want:  &finished{warmHour: 2, stored: []bool{true, true, false}, attempt: 1}},
		{name: "repair", do: func() (JobStatus, error) { return s.Recompute(base) },
			moved: outcomes{Submitted: 1, CacheMisses: 1, Repairs: 1},
			wrote: map[string]int{store.KindRecord: 2, store.KindCheckpoint: 2, store.KindSpec: 1},
			want:  &finished{stored: simulated, attempt: 1}},
		// A row is never an answer without its physics: the spec becomes a
		// job, resolves down the ladder from what survives, and the row and
		// the lost artifact are written again.
		{name: "row, end-of-run checkpoint evicted", restart: true, do: func() (JobStatus, error) {
			if err := backend.Delete(key(store.KindCheckpoint, ".snap", 2)); err != nil {
				t.Fatal(err)
			}
			return s.Submit(base)
		}, moved: outcomes{Submitted: 1, CacheMisses: 1, WarmStarts: 1},
			wrote: map[string]int{store.KindRecord: 1, store.KindCheckpoint: 1, store.KindSpec: 1},
			want:  &finished{warmHour: 1, stored: []bool{true, false}, attempt: 1}, restore: true},
		{name: "row, first hour record rotten", restart: true, do: func() (JobStatus, error) {
			rec := key(store.KindRecord, ".rec", 1)
			data, err := backend.Get(rec)
			if err != nil {
				t.Fatal(err)
			}
			data = bytes.Clone(data)
			data[len(data)/2] ^= 0x40
			if err := backend.MemBackend.Put(rec, data); err != nil {
				t.Fatal(err)
			}
			return s.Submit(nodes(3))
		}, moved: outcomes{Submitted: 1, CacheMisses: 1},
			wrote: map[string]int{store.KindRecord: 2, store.KindCheckpoint: 2, store.KindSpec: 1},
			want:  &finished{stored: simulated, attempt: 1}, restore: true},
		{name: "store hit once the physics is whole again", restart: true, do: submit(nodes(7)),
			moved: outcomes{Submitted: 1, StoreHits: 1}, restore: true,
			want: &finished{cached: true, fromStore: true, stored: served}},
	}
	for _, step := range steps {
		if step.restart {
			shutdown(t, s)
			s = open()
		}
		before := outcomesOf(s.Counters())
		st, err := step.do()
		if !errors.Is(err, step.err) {
			t.Fatalf("%s: error %v, want %v", step.name, err, step.err)
		}
		var events []HourEvent
		if step.want != nil {
			events, st = watchAll(t, s, st.ID)
		}
		c := s.Counters()
		if c.Submitted != c.CacheHits+c.StoreHits+c.Coalesced+c.CacheMisses+c.Rejected {
			t.Errorf("%s: counter partition violated: %+v", step.name, c)
		}
		if moved := outcomesOf(c).minus(before); moved != step.moved {
			t.Errorf("%s: moved %+v, want %+v", step.name, moved, step.moved)
		}
		if step.want == nil {
			continue
		}
		if wrote := backend.wrote(); len(wrote)+len(step.wrote) > 0 && !reflect.DeepEqual(wrote, step.wrote) {
			t.Errorf("%s: wrote %v, want %v", step.name, wrote, step.wrote)
		}
		w := step.want
		if st.State != Done || st.Cached != w.cached || st.FromStore != w.fromStore ||
			st.PhysicsReplay != w.replay || st.WarmStartHour != w.warmHour {
			t.Errorf("%s: finished %+v, want %+v", step.name, st, *w)
		}
		if len(events) != len(w.stored) {
			t.Fatalf("%s: %d hour events, want %d", step.name, len(events), len(w.stored))
		}
		for i, ev := range events {
			if ev.Hour != i || ev.Stored != w.stored[i] || ev.Attempt != w.attempt {
				t.Errorf("%s: event %d = %+v, want stored=%v attempt=%d", step.name, i, ev, w.stored[i], w.attempt)
			}
		}
		was := executed[st.Hash]
		switch {
		case was == nil:
			executed[st.Hash] = st.Result
		case !step.restore:
		case !reflect.DeepEqual(st.Result, was):
			t.Errorf("%s: result differs from the one first executed:\n got  %+v\n want %+v", step.name, st.Result, was)
		case finalSHA(st.Result.Final) != finalSHA(was.Final):
			t.Errorf("%s: sha256(Final) differs from the executed run's", step.name)
		}
	}
}
