package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"airshed/internal/sched"
	"airshed/internal/sweep"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes an SSE body until EOF (the handlers close the stream
// after the terminal event) and returns the events in arrival order.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q, want text/event-stream", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			events = append(events, cur)
			cur = sseEvent{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events
}

// TestRunStreamSSE is the streaming acceptance path: submit a
// multi-hour run and consume GET /v1/runs/{id}/stream — one "hour"
// event per simulated hour, in order, closed by a "status" event that
// matches the poll endpoint's answer.
func TestRunStreamSSE(t *testing.T) {
	ts, _ := testServer(t, sched.Options{Workers: 1})

	const hours = 3
	sub, code := postRun(t, ts, fmt.Sprintf(`{"dataset":"mini","machine":"t3e","nodes":2,"hours":%d}`, hours))
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp)

	if len(events) != hours+1 {
		t.Fatalf("stream delivered %d events, want %d hour + 1 status: %+v", len(events), hours, events)
	}
	for i := 0; i < hours; i++ {
		if events[i].name != "hour" {
			t.Fatalf("event %d is %q, want hour", i, events[i].name)
		}
		var ev sched.HourEvent
		if err := json.Unmarshal([]byte(events[i].data), &ev); err != nil {
			t.Fatalf("hour event %d: bad JSON %q: %v", i, events[i].data, err)
		}
		if ev.Hour != i || ev.Steps <= 0 || ev.PeakO3 <= 0 {
			t.Errorf("hour event %d malformed: %+v", i, ev)
		}
	}
	last := events[hours]
	if last.name != "status" {
		t.Fatalf("final event is %q, want status", last.name)
	}
	var final statusResponse
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatalf("status event: bad JSON %q: %v", last.data, err)
	}
	if final.State != "done" || final.Summary == nil {
		t.Errorf("terminal status event incomplete: state=%s summary=%v", final.State, final.Summary)
	}

	// A reconnect from the middle replays only the tail.
	resp, err = http.Get(ts.URL + "/v1/runs/" + sub.ID + "/stream?from=" + fmt.Sprint(hours-1))
	if err != nil {
		t.Fatal(err)
	}
	tail := readSSE(t, resp)
	if len(tail) != 2 || tail[0].name != "hour" || tail[1].name != "status" {
		t.Errorf("resume from %d delivered %+v, want one hour + status", hours-1, tail)
	}

	// Unknown runs 404 before any stream is committed.
	resp, err = http.Get(ts.URL + "/v1/runs/j999999/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run stream: status %d, want 404", resp.StatusCode)
	}
}

// TestSweepStreamSSE covers the batch face: "progress" events as the
// sweep's jobs finish, closed by a "sweep" event with the full status.
func TestSweepStreamSSE(t *testing.T) {
	ts, _ := testServer(t, sched.Options{Workers: 2})

	body := `{"base":{"dataset":"mini","machine":"t3e","nodes":2,"hours":1},
	          "grid":{"nox_scales":[1.0,0.8]}}`
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	var st sweep.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/stream?poll=10ms")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp)
	if len(events) < 2 {
		t.Fatalf("sweep stream delivered %d events, want at least a progress and the final sweep", len(events))
	}
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Errorf("event %q, want progress", ev.name)
		}
	}
	last := events[len(events)-1]
	if last.name != "sweep" {
		t.Fatalf("final event is %q, want sweep", last.name)
	}
	var final sweep.Status
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != "done" || final.Completed != final.Total || len(final.Jobs) != final.Total {
		t.Errorf("final sweep event incomplete: %+v", final)
	}

	// Unknown sweeps 404.
	resp, err = http.Get(ts.URL + "/v1/sweeps/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep stream: status %d, want 404", resp.StatusCode)
	}
}

// TestHealthzReportsAdmission pins the /healthz additions: queue depth
// and the estimated wait surface alongside liveness.
func TestHealthzReportsAdmission(t *testing.T) {
	ts, _ := testServer(t, sched.Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.QueueDepth != 0 || h.EstimatedWaitSeconds != 0 {
		t.Errorf("idle healthz = %+v, want ok with empty queue and zero wait", h)
	}
}
