package fleet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"airshed/internal/resilience"
	"airshed/internal/sched"
	"airshed/internal/store"
)

// AgentOptions configures a worker's fleet agent.
type AgentOptions struct {
	// Coordinator is the coordinator's base URL.
	Coordinator string
	// SelfURL is this worker's base URL as reachable from the
	// coordinator.
	SelfURL string
	// Name is the worker's registry name (must be fleet-unique).
	Name string
	// Machine is the machine.ByName profile key the worker advertises
	// for bin-packing.
	Machine string
	// HostWorkers and Workers are the advertised host-parallel width and
	// scheduler pool size.
	HostWorkers int
	Workers     int
	// Version is the worker's build version string.
	Version string
	// Interval is the heartbeat cadence (default 2s).
	Interval time.Duration
	// MaxBackoff caps the re-register backoff while the coordinator is
	// unreachable (default 30s). The backoff is exponential from Interval
	// with a deterministic per-worker jitter, so a whole fleet waking to
	// a restarted coordinator does not re-register as a thundering herd.
	MaxBackoff time.Duration
	// Scheduler, when set, feeds queue depth and busy workers into
	// heartbeats.
	Scheduler *sched.Scheduler
	// Store, when set, feeds store counters into heartbeats.
	Store *store.Store
	// Client is the HTTP client; nil gets a 10s-timeout default.
	Client *http.Client
	// Logf, when set, receives one line per agent event.
	Logf func(format string, args ...any)
}

// Agent is a worker's fleet membership: it registers with the
// coordinator at start (retrying until it succeeds) and heartbeats
// until stopped. If the coordinator forgets the worker — a restart —
// the agent re-registers on the next beat.
type Agent struct {
	opts   AgentOptions
	client *http.Client
	stop   chan struct{}
	done   chan struct{}
}

// StartAgent validates the options and starts the register/heartbeat
// loop in the background. An unreachable coordinator is not an error —
// the agent keeps retrying at the heartbeat cadence, so workers and
// coordinator can boot in any order.
func StartAgent(opts AgentOptions) (*Agent, error) {
	if opts.Coordinator == "" || opts.SelfURL == "" || opts.Name == "" {
		return nil, fmt.Errorf("fleet: agent needs coordinator, self URL and name")
	}
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 30 * time.Second
	}
	if opts.MaxBackoff < opts.Interval {
		opts.MaxBackoff = opts.Interval
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	a := &Agent{
		opts:   opts,
		client: opts.Client,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if a.client == nil {
		a.client = &http.Client{Timeout: 10 * time.Second}
	}
	go a.loop()
	return a, nil
}

// Stop ends the heartbeat loop and waits for it to exit.
func (a *Agent) Stop() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	<-a.done
}

func (a *Agent) loop() {
	defer close(a.done)
	registered := a.register()
	fails := 0
	for {
		select {
		case <-a.stop:
			return
		case <-time.After(a.delay(fails)):
		}
		if !registered {
			registered = a.register()
			if registered {
				fails = 0
			} else {
				fails++
			}
			continue
		}
		if err := a.beat(); err != nil {
			a.opts.Logf("fleet: heartbeat: %v", err)
			// Either the coordinator is down (the next beat retries) or
			// it restarted and forgot us (re-register re-creates the
			// record); re-registering covers both.
			registered = false
			fails++
		} else {
			fails = 0
		}
	}
}

// delay is the wait before the next register/heartbeat attempt: the
// plain cadence while healthy, capped exponential backoff with
// deterministic per-worker jitter after fails consecutive failures.
func (a *Agent) delay(fails int) time.Duration {
	if fails == 0 {
		return a.opts.Interval
	}
	p := resilience.RetryPolicy{
		BaseDelay:  a.opts.Interval,
		MaxDelay:   a.opts.MaxBackoff,
		Multiplier: 2,
		Jitter:     0.5,
		Seed:       resilience.HashKey(a.opts.Name),
	}.WithDefaults()
	return p.Delay(fails, resilience.HashKey(a.opts.Name))
}

// register announces the worker; reports success.
func (a *Agent) register() bool {
	req := RegisterRequest{
		Name:        a.opts.Name,
		URL:         a.opts.SelfURL,
		Machine:     a.opts.Machine,
		HostWorkers: a.opts.HostWorkers,
		Workers:     a.opts.Workers,
		Version:     a.opts.Version,
	}
	if err := a.post("", "/v1/fleet/register", req); err != nil {
		a.opts.Logf("fleet: register: %v", err)
		return false
	}
	a.opts.Logf("fleet: registered with %s as %s", a.opts.Coordinator, a.opts.Name)
	return true
}

// beat sends one heartbeat with the worker's live load and store view.
// The fleet.heartbeat injection point drops the beat before it leaves
// the process — the shape of a lossy network — which the loop treats
// exactly like a refused connection: back off and re-register.
func (a *Agent) beat() error {
	hb := Heartbeat{Name: a.opts.Name}
	if a.opts.Scheduler != nil {
		sc := a.opts.Scheduler.Counters()
		hb.QueueDepth = sc.QueueDepth
		hb.BusyWorkers = sc.BusyWorkers
	}
	if a.opts.Store != nil {
		hb.Store = a.opts.Store.Counters()
	}
	return a.post(resilience.PointFleetHeartbeat, "/v1/fleet/heartbeat", hb)
}

// post sends v to the coordinator, firing the named fault point first.
func (a *Agent) post(point, path string, v any) error {
	_, err := resilience.Exchange{Point: point, Method: http.MethodPost,
		URL: a.opts.Coordinator + path, JSON: v}.Do(context.Background(), a.client)
	return err
}
