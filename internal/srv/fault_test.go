package srv

// Backpressure under injected faults — runs with -race via `make
// race`. With a 10% seeded completion-fault schedule and 64-way
// concurrent load, the service must stay inside its status contract
// (200/202/429/500 only — 500s are the injected failures), never cache
// an error (the same cells all succeed once the plan deactivates), and
// still drain to quiescence.

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cobra/internal/exp"
	"cobra/internal/fault"
	"cobra/internal/sim"
)

func TestLoadWithCompletionFaults(t *testing.T) {
	s, ts, oreg := newTestServer(t, func(c *Config) {
		c.Workers = 4
		c.QueueDepth = 8
	})

	// 10% of worker completions fail, deterministically seeded: the
	// fire/skip decision is a pure function of (seed, point, hit), so
	// the schedule is identical however goroutines interleave.
	plan, err := fault.Build(1234, &fault.Rule{
		Point: fault.PointCellComplete, Prob: 0.10, Err: syscall.EIO,
	})
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	defer fault.Deactivate()

	const n = 64
	codes := make([]int, n)
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 60 * time.Second}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds: every job is a genuine compute (a fault
			// candidate), not a cache collapse.
			spec := JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND", Scale: 8,
				Seed: uint64(i), Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}}
			if i%4 == 0 {
				codes[i] = fire(t, client, ts.URL+"/v1/jobs", spec)
			} else {
				codes[i] = fire(t, client, ts.URL+"/v1/run", spec)
			}
		}(i)
	}
	wg.Wait()

	counts := map[int]int{}
	for _, c := range codes {
		counts[c]++
	}
	for code := range counts {
		switch code {
		case http.StatusOK, http.StatusAccepted, http.StatusTooManyRequests, http.StatusInternalServerError:
		default:
			t.Fatalf("status %d under faulted load (histogram %v)", code, counts)
		}
	}

	// Wait for asynchronously submitted jobs to settle before the next
	// phase: every job must be terminal before we change the fault plan.
	for deadline := time.Now().Add(30 * time.Second); ; {
		if s.inflight.Load() == 0 && len(s.queue) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never settled under faulted load")
		}
		time.Sleep(time.Millisecond)
	}

	if fault.Fires(fault.PointCellComplete) == 0 {
		t.Fatal("the 10% schedule never fired — the test exercised nothing")
	}

	// The cache must not have absorbed a single injected failure: with
	// faults off, the exact same cells all succeed. If an error had been
	// cached, one of these would replay it.
	fault.Deactivate()
	for seed := 0; seed < n; seed++ {
		spec := JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND", Scale: 8,
			Seed: uint64(seed), Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}}
		if code := fire(t, client, ts.URL+"/v1/run", spec); code != http.StatusOK {
			t.Fatalf("seed %d after deactivation: status %d — an injected failure leaked into the cache", seed, code)
		}
	}

	// And the server still drains cleanly: no wedged worker, no stuck
	// queue entry.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after faulted load: %v", err)
	}
	s.jmu.RLock()
	defer s.jmu.RUnlock()
	for id, j := range s.jobs {
		v := j.View()
		switch v.State {
		case JobDone, JobFailed, JobCanceled:
		default:
			t.Fatalf("job %s wedged in state %s", id, v.State)
		}
		if v.State == JobFailed && !strings.Contains(v.Error, "injected") {
			t.Fatalf("job %s failed for a non-injected reason: %s", id, v.Error)
		}
	}
	_ = oreg
}

// TestAdmissionFaultMapsTo500: an injected admission fault answers 500
// (retryable server trouble), never 4xx, and allocates no job.
func TestAdmissionFaultMapsTo500(t *testing.T) {
	s, ts, oreg := newTestServer(t, nil)
	plan, err := fault.Parse("srv.queue.admit:at=1:err=eio")
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	defer fault.Deactivate()

	client := &http.Client{Timeout: 30 * time.Second}
	spec := JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND", Scale: 8,
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}}
	if code := fire(t, client, ts.URL+"/v1/jobs", spec); code != http.StatusInternalServerError {
		t.Fatalf("faulted admission: status %d, want 500", code)
	}
	if got := oreg.Counter("srv.jobs.rejected_injected").Value(); got != 1 {
		t.Fatalf("rejected_injected = %d, want 1", got)
	}
	s.jmu.RLock()
	jobs := len(s.jobs)
	s.jmu.RUnlock()
	if jobs != 0 {
		t.Fatalf("a rejected submission allocated %d job(s)", jobs)
	}

	// The next submission (fault exhausted) succeeds.
	if code := fire(t, client, ts.URL+"/v1/jobs", spec); code != http.StatusAccepted {
		t.Fatalf("post-fault submission: status %d, want 202", code)
	}
}
