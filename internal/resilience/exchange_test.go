package resilience

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestExchangeClassification walks one exchange through every way the
// wire can fail and pins, per row, the verdict Retry acts on and the
// attempts that verdict costs under a three-attempt policy.
func TestExchangeClassification(t *testing.T) {
	const (
		ok        = "ok"
		transient = "transient"
		permanent = "permanent"
	)
	var served atomic.Int64
	mux := http.NewServeMux()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()
	status := func(code int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) { http.Error(w, "no", code) }
	}
	mux.HandleFunc("/404", status(http.StatusNotFound))
	mux.HandleFunc("/429", status(http.StatusTooManyRequests))
	mux.HandleFunc("/500", status(http.StatusInternalServerError))
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		var in struct{ N int }
		if r.Header.Get("Content-Type") != "application/json" || json.NewDecoder(r.Body).Decode(&in) != nil {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, `{"N": %d}`, in.N+1)
	})
	mux.HandleFunc("/garbage", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, "not json") })
	mux.HandleFunc("/big", func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, strings.Repeat("x", 65)) })
	mux.HandleFunc("/torn", func(w http.ResponseWriter, _ *http.Request) {
		// Promise 100 bytes, send 5 of well-formed JSON, drop the connection.
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		fmt.Fprint(buf, "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"N\":")
		buf.Flush()
		conn.Close()
	})
	mux.HandleFunc("/hang", func(_ http.ResponseWriter, r *http.Request) { <-r.Context().Done() })

	refused := httptest.NewServer(http.NotFoundHandler())
	refusedURL := refused.URL
	refused.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const point = "test.exchange"
	inj := New(1).Set(point, 1)
	Enable(inj)
	defer Disable()

	var raw []byte
	var reply struct{ N int }
	for _, tc := range []struct {
		name     string
		x        Exchange
		ctx      context.Context
		timeout  time.Duration
		verdict  string
		attempts int
		status   int
		served   int64 // requests that reached the server (-1: don't count)
	}{
		{name: "json round trip", x: Exchange{Method: "POST", URL: srv.URL + "/echo", JSON: map[string]int{"N": 41}, Into: &reply},
			verdict: ok, attempts: 1, status: 200, served: 1},
		{name: "refused connection", x: Exchange{Method: "GET", URL: refusedURL},
			verdict: transient, attempts: 3},
		{name: "mid-body EOF, raw read", x: Exchange{Method: "GET", URL: srv.URL + "/torn", Raw: &raw, MaxBody: 1 << 10},
			verdict: transient, attempts: 3, status: 200, served: 3},
		{name: "mid-body EOF, json decode", x: Exchange{Method: "GET", URL: srv.URL + "/torn", Into: &reply},
			verdict: transient, attempts: 3, status: 200, served: 3},
		{name: "client timeout", x: Exchange{Method: "GET", URL: srv.URL + "/hang"}, timeout: 30 * time.Millisecond,
			verdict: transient, attempts: 3, served: -1},
		{name: "caller's context dead", x: Exchange{Method: "GET", URL: srv.URL + "/hang"}, ctx: cancelled,
			verdict: permanent, attempts: 1},
		{name: "404 listed firm", x: Exchange{Method: "GET", URL: srv.URL + "/404", Firm: []int{404}},
			verdict: ok, attempts: 1, status: 404, served: 1},
		{name: "404 not listed", x: Exchange{Method: "GET", URL: srv.URL + "/404"},
			verdict: permanent, attempts: 1, status: 404, served: 1},
		{name: "429", x: Exchange{Method: "GET", URL: srv.URL + "/429", Firm: []int{404}},
			verdict: transient, attempts: 3, status: 429, served: 3},
		{name: "500", x: Exchange{Method: "PUT", URL: srv.URL + "/500", Body: []byte("blob")},
			verdict: transient, attempts: 3, status: 500, served: 3},
		{name: "undecodable json", x: Exchange{Method: "GET", URL: srv.URL + "/garbage", Into: &reply},
			verdict: permanent, attempts: 1, status: 200, served: 1},
		{name: "oversized body", x: Exchange{Method: "GET", URL: srv.URL + "/big", Raw: &raw, MaxBody: 64},
			verdict: permanent, attempts: 1, status: 200, served: 1},
		{name: "injected fault", x: Exchange{Point: point, Method: "GET", URL: srv.URL + "/echo"},
			verdict: transient, attempts: 3, served: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			client := &http.Client{Timeout: tc.timeout}
			defer client.CloseIdleConnections()
			before := served.Load()
			var status int
			policy := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
			attempts, err := Retry(ctx, policy, 1, func(int) (err error) {
				status, err = tc.x.Do(ctx, client)
				return err
			}, nil)
			verdict := ok
			if err != nil {
				verdict = permanent
				if IsTransient(err) {
					verdict = transient
				}
			}
			if verdict != tc.verdict || attempts != tc.attempts || status != tc.status {
				t.Errorf("verdict %s after %d attempts with status %d (%v); want %s after %d with %d",
					verdict, attempts, status, err, tc.verdict, tc.attempts, tc.status)
			}
			if got := served.Load() - before; tc.served >= 0 && got != tc.served {
				t.Errorf("%d requests reached the server, want %d", got, tc.served)
			}
		})
	}
	if reply.N != 42 {
		t.Errorf("json round trip decoded N = %d, want 42", reply.N)
	}
	if fired := inj.Fired(point); fired != 3 {
		t.Errorf("fault point fired %d times, want once per attempt (3)", fired)
	}
}
