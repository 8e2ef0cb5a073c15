package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded from outside the program (around exported calls, or rebuilt
// from timestamps the program already returns); in-program spans are
// ROADMAP item 3.
type span struct {
	Name   string // what ran: "core.RunContext", "hour 12", "POST /v1/sr/predict"
	Layer  string // module name the time is booked to
	ID     string // request / job / repetition identifier shared by related spans
	Parent int    // index of the causing span, -1 for a root
	Lane   int    // display lane (client, worker); no meaning beyond layout
	Start  time.Time
	End    time.Time
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// the untraced pass: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a span whose end is set later with end; the index is valid
// as a parent immediately.
func (t *tracer) begin(name, layer, id string, parent int) int {
	return t.add(span{Name: name, Layer: layer, ID: id, Parent: parent, Start: time.Now()})
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of that interval its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i, s := range t.spans {
		out[s.Layer] += s.End.Sub(s.Start) - t.coverLocked(s, children[i])
	}
	return out
}

// coverLocked is the length of the union of the children's intervals,
// clipped to the parent.
func (t *tracer) coverLocked(parent span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := t.spans[k].Start, t.spans[k].End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo.After(curHi):
			total += curHi.Sub(curLo)
			curLo, curHi = v.lo, v.hi
		case v.hi.After(curHi):
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi.Sub(curLo)
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds since the trace origin
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// events renders the spans for one workload (pid distinguishes workloads
// in a merged file).
func (t *tracer) events(pid int) []chromeEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	origin := t.spans[0].Start
	for _, s := range t.spans {
		if s.Start.Before(origin) {
			origin = s.Start
		}
	}
	evs := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Sub(origin)) / float64(time.Microsecond),
			Dur: float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			PID: pid, TID: s.Lane,
			Args: map[string]any{"span": i, "parent": s.Parent, "id": s.ID},
		}
	}
	return evs
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func writeChromeTrace(path string, evs []chromeEvent) error {
	data, err := json.Marshal(chromeTrace{TraceEvents: evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readChromeTrace(path string) ([]chromeEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ct chromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		return nil, err
	}
	return ct.TraceEvents, nil
}
