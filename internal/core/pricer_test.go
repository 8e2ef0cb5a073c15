package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"airshed/internal/machine"
)

// One Pricer shared by concurrent replays of the whole pin grid, one
// profile per goroutine, prices every point to its pin: reusing a node
// group's work split (p data-parallel nodes and p+2 task-parallel nodes
// share a compute group) changes no bit.
func TestSharedPricerMatchesPins(t *testing.T) {
	tr, err := LoadTrace(filepath.Join("..", "..", "testdata", "traces", "LA24h.trace"))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewPricer(tr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"t3e", "t3d", "paragon"} {
		prof, err := machine.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(name string, prof *machine.Profile) {
			defer wg.Done()
			for _, p := range replayPinNodes {
				for _, mode := range []Mode{DataParallel, TaskParallel} {
					if mode == TaskParallel && p < 3 {
						continue
					}
					key := fmt.Sprintf("%s/%d/%v", name, p, mode)
					res, err := pr.Replay(prof, p, mode)
					if err != nil {
						t.Errorf("%s: %v", key, err)
						return
					}
					if got := replayFingerprint(res); got != replayPins[key] {
						t.Errorf("%s: fingerprint %s through a shared Pricer, pinned %s", key, got, replayPins[key])
					}
				}
			}
		}(name, prof)
	}
	wg.Wait()
}

// Pricer.Sums, asked from several goroutines at once, is the trace's own
// Sum* totals bit for bit.
func TestPricerSumsMatchTrace(t *testing.T) {
	tr, err := LoadTrace(filepath.Join("..", "..", "testdata", "traces", "LA24h.trace"))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := NewPricer(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := WorkSums{Chem: tr.SumChemFlops(), Transport: tr.SumTransportFlops(), Aero: tr.SumAeroFlops()}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := pr.Sums(); got != want {
				t.Errorf("Pricer.Sums = %+v, trace sums %+v", got, want)
			}
		}()
	}
	wg.Wait()
}
