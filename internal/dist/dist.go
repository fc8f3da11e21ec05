// Package dist is the fleet coordinator: it scatters the independent
// simulation cells of a campaign across a set of cobrad workers and
// gathers the results back into the local merge/artifact path, so a
// distributed run's output is byte-identical to a local one.
//
// The coordinator implements exp.RemoteRunner: cmd/figures plugs it
// into exp.Opts.Remote and every cell flows store lookup -> remote
// dispatch -> local fallback. The store is the caller's exp.Journal:
// it replays completed cells on resume and sends a repeated cell out
// once, so the coordinator itself keeps no results. Dispatch is
// least-loaded (local in-flight plus the advisory queue depth from
// GET /v1/jobs) with a bounded in-flight per node; each node gets its
// own resilient internal/client (retries, jittered backoff,
// Retry-After honoring, circuit breaker). A node whose dispatch fails for availability
// reasons is marked down and the cell is stolen — re-dispatched to a
// healthy node; a background prober re-admits nodes whose /healthz and
// /readyz recover. When no node can take a cell (fleet down, or the
// cell is not expressible as a cobrad job), RunCell declines it and
// the caller simulates locally — degraded throughput, identical bytes.
//
// Byte-identity argument: a cell is a deterministic function of its
// exp.CellKey, the workers run the exact same simulator through the
// same runner as a local cell (exp.Opts.Run), and sim.Metrics round-trips JSON exactly (uint64 and
// float64 fields decode bit-exact into the typed struct — the same
// property the checkpoint journal's replay path relies on).
package dist

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"cobra/internal/client"
	"cobra/internal/exp"
	"cobra/internal/obsv"
	"cobra/internal/sim"
	"cobra/internal/srv"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Addrs are the cobrad worker base URLs ("http://host:port"; a bare
	// host:port gets the scheme prefixed). At least one is required.
	Addrs []string
	// Client configures every per-node client; zero values select the
	// client package defaults.
	Client client.Options
	// Reg receives fleet metrics (dist.* counters); nil disables
	// (zero-cost, per the obsv contract).
	Reg *obsv.Registry
	// Events receives fleet events (node_down/node_up/cell_stolen);
	// nil disables.
	Events *obsv.EventLog
	// ProbeInterval paces the background prober that re-admits
	// recovered workers and refreshes advisory load (<= 0: 2s).
	ProbeInterval time.Duration
}

// node is one registered worker and its dispatch accounting. All
// mutable fields are guarded by Coordinator.mu.
type node struct {
	idx  int
	addr string
	c    *client.Client

	healthy  bool
	inflight int // cells currently dispatched by this coordinator
	load     int // advisory queued+running from GET /v1/jobs

	dispatched uint64
	completed  uint64
	failed     uint64
	stolen     uint64 // dispatches received as steals from other nodes
}

// score orders dispatch preference: fewest in-flight plus advisory
// backlog wins; ties resolve to the lowest node index (deterministic).
func (n *node) score() int { return n.inflight + n.load }

// Coordinator scatters cells across cobrad workers. Safe for
// concurrent use by parallel campaign cells.
type Coordinator struct {
	cfg    Config
	reg    *obsv.Registry
	events *obsv.EventLog
	nodes  []*node

	mu sync.Mutex

	// wake is a buffered slot-freed/node-recovered notification so
	// blocked acquirers re-evaluate promptly without spinning.
	wake chan struct{}

	closeOnce sync.Once
	closed    chan struct{}
	probeWG   sync.WaitGroup
}

// maxInflight bounds concurrently dispatched cells per worker.
// Dispatch blocks when every healthy node is at its cap.
const maxInflight = 4

var (
	errNoWorkers = errors.New("dist: no healthy worker can take the cell")
	errClosed    = errors.New("dist: coordinator closed")
)

// New builds a Coordinator and starts its background health prober.
// Call Close when the campaign ends.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	co := &Coordinator{
		cfg:    cfg,
		reg:    cfg.Reg,
		events: cfg.Events,
		wake:   make(chan struct{}, 1),
		closed: make(chan struct{}),
	}
	for _, addr := range cfg.Addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if !strings.Contains(addr, "://") {
			addr = "http://" + addr
		}
		co.nodes = append(co.nodes, &node{
			idx:     len(co.nodes),
			addr:    addr,
			c:       client.New(addr, cfg.Client),
			healthy: true, // optimistic; the first failure or probe corrects it
		})
	}
	if len(co.nodes) == 0 {
		return nil, fmt.Errorf("dist: no worker addresses")
	}
	co.probeWG.Add(1)
	go co.probeLoop()
	return co, nil
}

// Nodes returns the registered worker addresses in index order.
func (co *Coordinator) Nodes() []string {
	addrs := make([]string, len(co.nodes))
	for i, n := range co.nodes {
		addrs[i] = n.addr
	}
	return addrs
}

// Close stops the background prober. Idempotent; in-flight RunCell
// calls are not interrupted (cancel their ctx for that).
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() { close(co.closed) })
	co.probeWG.Wait()
}

// Probe health-checks every worker once, synchronously (both /healthz
// and /readyz must answer), updates each node's health flag, and
// returns how many are healthy. Campaigns call it up front so a dead
// fleet is reported before hours of local-fallback simulation.
func (co *Coordinator) Probe(ctx context.Context) int {
	healthy := 0
	for _, n := range co.nodes {
		up := n.c.Health(ctx) == nil && n.c.Ready(ctx) == nil
		co.mu.Lock()
		n.healthy = up
		co.mu.Unlock()
		if up {
			healthy++
		}
	}
	if healthy > 0 {
		co.notify()
	}
	return healthy
}

// RunCell implements exp.RemoteRunner: dispatch the cell to the
// least-loaded healthy worker, stealing it to another node when the
// first fails for availability reasons. ok=false declines the cell —
// not expressible as a cobrad job, rejected by every worker's
// validation, or no healthy worker left — and the caller runs it
// locally. err is only returned for the caller's own problems
// (canceled context, closed coordinator); worker failures never fail
// the campaign.
func (co *Coordinator) RunCell(ctx context.Context, k exp.CellKey) (sim.Metrics, bool, error) {
	spec, servable := co.specFor(k)
	if !servable {
		co.reg.Counter("dist.cells.unservable").Add(1)
		return sim.Metrics{}, false, nil
	}
	fp := k.Fingerprint()

	var tried map[int]bool
	steal := false
	for {
		n, err := co.acquire(ctx, tried)
		if err == errNoWorkers {
			// Every worker is down or already failed this cell: decline
			// and let the caller simulate locally.
			co.reg.Counter("dist.cells.local_fallback").Add(1)
			co.events.Emit("cell_local_fallback", map[string]any{"cell": fp})
			return sim.Metrics{}, false, nil
		}
		if err != nil {
			return sim.Metrics{}, true, err
		}
		m, err := co.dispatch(ctx, n, spec, fp, steal)
		if err == nil {
			return m, true, nil
		}
		if ctx.Err() != nil {
			return sim.Metrics{}, true, err
		}
		var ce *client.Error
		if errors.As(err, &ce) && ce.Permanent && ce.Status != 0 && ce.Status != http.StatusNotFound {
			// The worker answered and rejected the spec itself (4xx):
			// every node validates identically, so re-dispatching cannot
			// help — decline to local, where the cell either runs fine
			// (e.g. a scale beyond the worker's -max-scale) or surfaces
			// the real error from the simulator.
			co.reg.Counter("dist.cells.rejected").Add(1)
			co.events.Emit("cell_rejected", map[string]any{"cell": fp, "node": n.addr, "error": err.Error()})
			return sim.Metrics{}, false, nil
		}
		// Availability failure (transport error, 5xx, exhausted retries,
		// circuit open, job repeatedly failed/vanished): take the node
		// out of rotation and steal the cell to another one.
		co.markDown(n, err)
		if tried == nil {
			tried = map[int]bool{}
		}
		tried[n.idx] = true
		steal = true
	}
}

// acquire blocks until a healthy node (not in tried) has a free
// dispatch slot, returning it with the slot reserved. errNoWorkers
// means no healthy untried node exists at all — waiting would be
// pointless until the prober re-admits one, and the caller prefers
// local fallback over stalling the campaign.
func (co *Coordinator) acquire(ctx context.Context, tried map[int]bool) (*node, error) {
	for {
		co.mu.Lock()
		var best *node
		candidates := false
		for _, n := range co.nodes {
			if tried[n.idx] || !n.healthy {
				continue
			}
			candidates = true
			if n.inflight >= maxInflight {
				continue
			}
			if best == nil || n.score() < best.score() {
				best = n
			}
		}
		if best != nil {
			best.inflight++
			co.mu.Unlock()
			return best, nil
		}
		co.mu.Unlock()
		if !candidates {
			return nil, errNoWorkers
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-co.closed:
			return nil, errClosed
		case <-co.wake:
		case <-time.After(100 * time.Millisecond):
			// Periodic re-check: a single wake token can only rouse one
			// waiter, and node health may have changed without a release.
		}
	}
}

// dispatch runs one cell as a single-scheme job on n, releasing the
// reserved slot when done.
func (co *Coordinator) dispatch(ctx context.Context, n *node, spec srv.JobSpec, fp string, steal bool) (sim.Metrics, error) {
	defer co.release(n)
	co.mu.Lock()
	n.dispatched++
	if steal {
		n.stolen++
	}
	co.mu.Unlock()
	co.reg.Counter("dist.cells.dispatched").Add(1)
	if steal {
		co.reg.Counter("dist.cells.stolen").Add(1)
		co.events.Emit("cell_stolen", map[string]any{"cell": fp, "to": n.addr})
	}

	v, err := n.c.Run(ctx, spec)
	co.mu.Lock()
	if err != nil {
		n.failed++
	} else {
		n.completed++
	}
	co.mu.Unlock()
	if err != nil {
		co.reg.Counter("dist.cells.failed").Add(1)
		return sim.Metrics{}, err
	}
	if len(v.Results) != 1 {
		return sim.Metrics{}, fmt.Errorf("dist: job %s returned %d results, want 1", v.ID, len(v.Results))
	}
	co.reg.Counter("dist.cells.completed").Add(1)
	return v.Results[0], nil
}

// release frees a dispatch slot and wakes one blocked acquirer.
func (co *Coordinator) release(n *node) {
	co.mu.Lock()
	n.inflight--
	co.mu.Unlock()
	co.notify()
}

func (co *Coordinator) notify() {
	select {
	case co.wake <- struct{}{}:
	default:
	}
}

// markDown takes a node out of the dispatch rotation; the background
// prober re-admits it when /healthz and /readyz recover.
func (co *Coordinator) markDown(n *node, cause error) {
	co.mu.Lock()
	was := n.healthy
	n.healthy = false
	co.mu.Unlock()
	if was {
		co.reg.Counter("dist.node.down").Add(1)
		co.events.Emit("node_down", map[string]any{"node": n.addr, "error": cause.Error()})
	}
	// Waiters must re-evaluate: the node they were queueing for may
	// have been the last healthy one.
	co.notify()
}

// probeLoop periodically re-probes down nodes (re-admitting recovered
// ones) and refreshes healthy nodes' advisory load from GET /v1/jobs.
func (co *Coordinator) probeLoop() {
	defer co.probeWG.Done()
	t := time.NewTicker(co.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-co.closed:
			return
		case <-t.C:
			co.probeOnce()
		}
	}
}

func (co *Coordinator) probeOnce() {
	for _, n := range co.nodes {
		co.mu.Lock()
		healthy := n.healthy
		co.mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), co.cfg.ProbeInterval)
		if !healthy {
			if n.c.Health(ctx) == nil && n.c.Ready(ctx) == nil {
				co.mu.Lock()
				n.healthy = true
				co.mu.Unlock()
				co.reg.Counter("dist.node.up").Add(1)
				co.events.Emit("node_up", map[string]any{"node": n.addr})
				co.notify()
			}
		} else if sum, err := n.c.Jobs(ctx); err == nil {
			co.mu.Lock()
			n.load = sum.Queued + sum.Running
			co.mu.Unlock()
		}
		cancel()
	}
}

// Snapshot returns the fleet accounting for the run manifest.
func (co *Coordinator) Snapshot() *obsv.FleetInfo {
	co.mu.Lock()
	defer co.mu.Unlock()
	info := &obsv.FleetInfo{}
	for _, n := range co.nodes {
		cs := n.c.Stats()
		info.Workers = append(info.Workers, obsv.FleetNode{
			Addr:           n.addr,
			Healthy:        n.healthy,
			Dispatched:     n.dispatched,
			Completed:      n.completed,
			Failed:         n.failed,
			Stolen:         n.stolen,
			ClientAttempts: cs.Attempts,
			ClientRetries:  cs.Retries,
			Breaker:        cs.BreakerState,
		})
		info.Dispatched += n.dispatched
		info.Completed += n.completed
		info.Failed += n.failed
		info.Stolen += n.stolen
	}
	// Every completed dispatch is a gathered cell: repeats and replays
	// never reach the coordinator.
	info.Gathered = info.Completed
	return info
}
