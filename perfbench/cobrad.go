package main

// cobrad-mix: an in-process cobrad (srv.Server behind httptest) with 2
// workers and a journaled result cache, driven by a closed loop of 2
// clients over POST /v1/run. Campaign callers (cobractl, the fleet)
// wait for each reply, hence the closed loop. The seeded mix is half
// cold offline jobs at scales 10-12 in the shapes the fleet and
// cobractl send, 40% warm repeats of earlier cold specs, and 10% small
// stream jobs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cobra/internal/exp"
	"cobra/internal/obsv"
	"cobra/internal/sim"
	"cobra/internal/srv"
)

// Request kinds of the mix.
const (
	kindCold   = "cold"
	kindWarm   = "warm"
	kindStream = "stream"
)

// mixRequest is one request of the mix.
type mixRequest struct {
	kind string
	spec srv.JobSpec
	twin int // warm: index of the cold request it repeats
	typ  int // cold / stream: position in the fixed cycle of job types
}

// jobReply is what the client saw for one request.
type jobReply struct {
	status  int
	err     error
	latency time.Duration
	start   time.Time
	results json.RawMessage
	misses  int
	// Server timestamps from the JobView.
	submitted, started, finished time.Time
}

// wireView is the part of srv.JobView the benchmark reads.
type wireView struct {
	Results     json.RawMessage `json:"results"`
	CacheMisses int             `json:"cache_misses"`
	SubmittedAt string          `json:"submitted_at"`
	StartedAt   string          `json:"started_at"`
	FinishedAt  string          `json:"finished_at"`
}

type cobradWL struct {
	cfg       runConfig
	requests  int // per pass
	scales    []int
	refSample int // pass-0 replies checked against direct runs

	tmp     string
	server  *srv.Server
	hs      *httptest.Server
	reg     *obsv.Registry
	servers int

	passN   int
	mix     []mixRequest
	refs    map[int][]byte // pass-0 index -> canonical direct results
	mixes   [][]mixRequest // per pass
	replies [][]jobReply   // per pass
	walls   []float64      // untraced pass walls
	traced  []jobReply     // replies of the traced pass
	last    []sim.Metrics  // simulated results of the last pass's cold jobs
}

func newCobrad(cfg runConfig) runner {
	c := &cobradWL{cfg: cfg, requests: 1000, scales: []int{10, 11, 12}, refSample: 8}
	if cfg.tiny {
		c.requests, c.scales, c.refSample = 40, []int{6, 7}, 3
	}
	return c
}

// genMix builds a pass's request mix from the seed. The composition is
// fixed — requests/2 cold offline jobs, requests/10 stream jobs and
// warm repeats for the rest — so every seed and pass does the same
// kinds of work; the seed shuffles the order, picks the twins and
// seeds the inputs. The jobs have the shapes their callers send (see
// coldJobs and streamJob). A warm request repeats a cold spec at least
// 8 requests earlier, so with 2 clients its twin has been sent (and is
// done or in flight) before it.
func (c *cobradWL) genMix(pass int) ([]mixRequest, error) {
	rng := rand.New(rand.NewSource(int64(c.cfg.seed)*7919 + int64(pass)))
	nCold, nStream := c.requests/2, c.requests/10
	kinds := make([]string, c.requests)
	for i := range kinds {
		switch {
		case i < nCold:
			kinds[i] = kindCold
		case i < nCold+nStream:
			kinds[i] = kindStream
		default:
			kinds[i] = kindWarm
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	first, nc := -1, 0 // first cold request, cold count
	for i, kind := range kinds {
		if kind == kindWarm && (first < 0 || first > i-8) {
			kinds[i] = kindCold // too early for a twin: the first requests are cold
		}
		if kinds[i] == kindCold {
			if first < 0 {
				first = i
			}
			nc++
		}
	}
	colds, err := c.coldJobs(pass, nc)
	if err != nil {
		return nil, err
	}

	mix := make([]mixRequest, c.requests)
	var cold []int // cold request indices, in order
	var kc, ks int // cold / stream counters
	for i, kind := range kinds {
		switch kind {
		case kindCold:
			mix[i] = mixRequest{kind: kindCold, spec: colds[kc], typ: kc}
			cold = append(cold, i)
			kc++
		case kindStream:
			mix[i] = mixRequest{kind: kindStream, spec: c.streamJob(pass, ks), typ: ks}
			ks++
		default:
			eligible := len(cold)
			for eligible > 0 && cold[eligible-1] > i-8 {
				eligible--
			}
			j := cold[rng.Intn(eligible)]
			mix[i] = mixRequest{kind: kindWarm, spec: mix[j].spec, twin: j}
		}
	}
	return mix, nil
}

// coldJobs returns the first n cold offline jobs of a pass, in the
// order the callers send them. Two callers send offline jobs:
//
//   - The fleet (figures -fleet, internal/dist). For a suite campaign
//     (Figures 5, 10, 11, 12) it sends every cell runSuite enumerates,
//     translated by dist's Coordinator.specFor: per suite pair, one
//     Baseline cell, one PB-SW cell per exp.BinSweep bin count up to
//     the app's key count (exp's validBins), and one COBRA cell; each a
//     single scheme on one core, all with the campaign's scale and seed.
//   - cobractl run / submit, with the shapes its usage documents
//     (cmd/cobractl and README.md): DegreeCount/URND Baseline,COBRA;
//     PageRank/KRON COBRA; PageRank/KRON Baseline,PB-SW with the
//     default -bins 0, which sweeps on the server.
//
// How the two interleave is assumed, not measured: one cobractl job
// follows each suite pair's fleet cells. Campaigns cycle through the
// mix's scales; every campaign, and every cobractl job, has its own
// seed, so each job misses the result cache. The scales are the mix's
// (10-12), not the 16-18 of the usage examples.
func (c *cobradWL) coldJobs(pass, n int) ([]srv.JobSpec, error) {
	ctl := []exp.RunSpec{
		{App: "DegreeCount", Input: "URND", Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDCOBRA}},
		{App: "PageRank", Input: "KRON", Schemes: []sim.SchemeID{sim.SchemeIDCOBRA}},
		{App: "PageRank", Input: "KRON", Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPBSW}},
	}
	var out []srv.JobSpec
	var nctl int
	for k := 0; len(out) < n; k++ {
		scale, seed := c.scales[k%len(c.scales)], c.uniq(pass, k)
		for _, p := range exp.DefaultSuite() {
			if len(out) >= n {
				break
			}
			// The key count decides the sweep, as in runSuite. Building
			// the app memoizes its input; the caller empties the memo.
			app, err := exp.BuildApp(p.App, p.Input, scale, seed)
			if err != nil {
				return nil, fmt.Errorf("building %s/%s: %w", p.App, p.Input, err)
			}
			cell := func(id sim.SchemeID, bins int) srv.JobSpec {
				return srv.JobSpec{RunSpec: exp.RunSpec{App: p.App, Input: p.Input, Scale: scale, Seed: seed,
					Schemes: []sim.SchemeID{id}, Bins: bins, Cores: 1}}
			}
			out = append(out, cell(sim.SchemeIDBaseline, 0))
			for _, b := range sweepBins(app) {
				out = append(out, cell(sim.SchemeIDPBSW, b))
			}
			out = append(out, cell(sim.SchemeIDCOBRA, 0))

			spec := ctl[nctl%len(ctl)]
			spec.Scale, spec.Seed = scale, c.uniq(pass, 1<<15|nctl)
			out = append(out, srv.JobSpec{RunSpec: spec})
			nctl++
		}
	}
	return out[:n], nil
}

// sweepBins is runSuite's PB-SW sweep for app (exp's validBins): the
// exp.BinSweep bin counts up to the app's key count, or 1 bin when
// none fits.
func sweepBins(app *sim.App) []int {
	var out []int
	for _, b := range exp.BinSweep {
		if b > app.NumKeys {
			break
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// streamJob is the i-th stream job of a pass, in the shape of the
// POST /v1/stream example in README.md (also what cobractl run -stream
// sends without window flags): one scheme, the server's default
// windows (8) and window size (2<<scale updates). The scale is the
// mix's smallest; app, input and scheme cycle over every streamable
// combination (assumed: no caller fixes them).
func (c *cobradWL) streamJob(pass, i int) srv.JobSpec {
	apps, inputs := exp.StreamApps(), []string{"URND", "SKEW"}
	schemes := []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPBSW, sim.SchemeIDCOBRA, sim.SchemeIDPHI}
	return srv.JobSpec{RunSpec: exp.RunSpec{
		App:     apps[i%len(apps)],
		Input:   inputs[(i/len(apps))%len(inputs)],
		Schemes: []sim.SchemeID{schemes[(i/(len(apps)*len(inputs)))%len(schemes)]},
		Scale:   c.scales[0], Seed: c.uniq(pass, 1<<14|i), Kind: exp.KindStream,
	}}
}

// uniq is a seed unique to the run's seed, the pass and i.
func (c *cobradWL) uniq(pass, i int) uint64 {
	return c.cfg.seed<<24 | uint64(pass)<<16 | uint64(i)
}

// direct computes a request's results outside the service, through
// exp.RunScheme or exp.RunStream, in canonical JSON.
func direct(spec exp.RunSpec) ([]byte, error) {
	if err := spec.Normalize(exp.Limits{}); err != nil {
		return nil, err
	}
	arch := spec.Arch(sim.DefaultArch())
	var ms []sim.Metrics
	if spec.Kind == exp.KindStream {
		r, err := exp.RunStream(exp.Opts{Arch: sim.DefaultArch()}, "srv", spec, spec.Schemes[0])
		if err != nil {
			return nil, err
		}
		ms = append(ms, r.Merged)
	} else {
		app, err := exp.BuildApp(spec.App, spec.Input, spec.Scale, spec.Seed)
		if err != nil {
			return nil, err
		}
		for _, id := range spec.Schemes {
			m, err := exp.RunScheme(app, id.Scheme(), spec.Bins, arch)
			if err != nil {
				return nil, err
			}
			ms = append(ms, m)
		}
	}
	return json.Marshal(ms)
}

// canonical re-encodes a results array so direct and served results
// compare byte for byte.
func canonical(raw json.RawMessage) ([]byte, error) {
	var ms []sim.Metrics
	if err := json.Unmarshal(raw, &ms); err != nil {
		return nil, err
	}
	return json.Marshal(ms)
}

// sampleIndices picks the pass-0 requests checked against direct
// runs: refSample-1 cold job types spread over the cycle, and one
// stream job. The types are fixed, so the set-up cost is the same for
// every seed; the seed decides where in the mix they sit.
func (c *cobradWL) sampleIndices(mix []mixRequest) []int {
	nCold := c.requests / 2
	want := map[int]bool{}
	for j := 0; j < c.refSample-1; j++ {
		want[3+j*nCold/c.refSample] = true
	}
	var pick []int
	for i, r := range mix {
		if (r.kind == kindCold && want[r.typ]) || (r.kind == kindStream && r.typ == 1) {
			pick = append(pick, i)
		}
	}
	return pick
}

// setup computes the direct references for pass 0's sample, empties
// the input memo again (so cold jobs stay cold) and starts a fresh
// server.
func (c *cobradWL) setup() error {
	if c.tmp == "" {
		dir, err := os.MkdirTemp("", "perfbench-cobrad-")
		if err != nil {
			return err
		}
		c.tmp = dir
	}
	c.passN = 0
	mix, err := c.genMix(0)
	if err != nil {
		return err
	}
	c.mix = mix
	c.refs = map[int][]byte{}
	for _, i := range c.sampleIndices(c.mix) {
		ref, err := direct(c.mix[i].spec.RunSpec)
		if err != nil {
			return fmt.Errorf("direct run of request %d: %w", i, err)
		}
		c.refs[i] = ref
	}
	exp.ResetMemos()
	return c.startServer(nil)
}

// reset starts the next pass on a fresh server (empty journal, empty
// memos) with a new mix.
func (c *cobradWL) reset(reg *obsv.Registry) error {
	c.passN++
	mix, err := c.genMix(c.passN)
	if err != nil {
		return err
	}
	c.mix = mix
	exp.ResetMemos()
	return c.startServer(reg)
}

func (c *cobradWL) startServer(reg *obsv.Registry) error {
	c.stopServer()
	c.servers++
	s, err := srv.New(srv.Config{
		Workers: 2, QueueDepth: 64,
		CachePath: filepath.Join(c.tmp, fmt.Sprintf("cache-%d.jsonl", c.servers)), CacheReset: true,
		Reg: reg,
	})
	if err != nil {
		return err
	}
	s.Start()
	c.server, c.hs, c.reg = s, httptest.NewServer(s.Handler()), reg
	return nil
}

func (c *cobradWL) stopServer() {
	if c.server == nil {
		return
	}
	c.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = c.server.Drain(ctx) // every request has been answered; nothing is in flight
	c.server, c.hs = nil, nil
}

// pass sends the mix through a closed loop of 2 clients.
func (c *cobradWL) pass(p *passCtx) error {
	replies := make([]jobReply, len(c.mix))
	bodies := make([][]byte, len(c.mix))
	for i, r := range c.mix {
		b, err := json.Marshal(r.spec)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	client := c.hs.Client()
	url := c.hs.URL + "/v1/run"
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(c.mix) {
					return
				}
				replies[i] = send(client, url, bodies[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()

	c.last = c.last[:0]
	for i, r := range replies {
		p.attempted++
		if r.status != http.StatusOK || r.err != nil {
			p.failed++
			continue
		}
		if p.tr != nil {
			req := p.tr.record("srv.job."+c.mix[i].kind, -1, r.start, r.start.Add(r.latency))
			p.tr.record("srv.queue", req, r.submitted, r.started)
			p.tr.record("srv.run", req, r.started, r.finished)
		}
		if r.misses > 0 {
			var ms []sim.Metrics
			if err := json.Unmarshal(r.results, &ms); err == nil {
				c.last = append(c.last, ms...)
			}
		}
	}
	if p.tr != nil {
		c.traced = replies
	} else {
		c.walls = append(c.walls, wall)
	}
	c.mixes = append(c.mixes, c.mix)
	c.replies = append(c.replies, replies)
	return nil
}

// send posts one spec and decodes the reply.
func send(client *http.Client, url string, body []byte) jobReply {
	r := jobReply{start: time.Now()}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err = err
		r.latency = time.Since(r.start)
		return r
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(r.start)
	r.status = resp.StatusCode
	if err != nil {
		r.err = err
		return r
	}
	var v wireView
	if err := json.Unmarshal(data, &v); err != nil {
		r.err = fmt.Errorf("decoding reply: %w", err)
		return r
	}
	r.results, r.misses = v.Results, v.CacheMisses
	for _, ts := range []struct {
		s   string
		dst *time.Time
	}{{v.SubmittedAt, &r.submitted}, {v.StartedAt, &r.started}, {v.FinishedAt, &r.finished}} {
		if *ts.dst, err = time.Parse(time.RFC3339Nano, ts.s); err != nil {
			r.err = fmt.Errorf("reply timestamp %q: %w", ts.s, err)
			return r
		}
	}
	return r
}

func (c *cobradWL) verify(ck *checks) error {
	for p, replies := range c.replies {
		checkReplies(ck, p, c.mixes[p], replies)
	}
	if len(c.replies) > 0 {
		checkReferences(ck, c.refs, c.replies[0])
	}
	return nil
}

// checkReplies checks that every cold reply simulated, and that every
// warm reply was served from the cache and byte-equals its cold twin.
func checkReplies(ck *checks, pass int, mix []mixRequest, replies []jobReply) {
	for i, r := range replies {
		if r.status != http.StatusOK || r.err != nil {
			continue // counted as a failed op
		}
		switch mix[i].kind {
		case kindWarm:
			twin := replies[mix[i].twin]
			ck.expect(r.misses == 0, "pass %d request %d: warm reply reports %d cache misses", pass+1, i, r.misses)
			ck.expect(bytes.Equal(r.results, twin.results), "pass %d request %d: warm reply differs from its cold twin %d", pass+1, i, mix[i].twin)
		default:
			ck.expect(r.misses > 0, "pass %d request %d: %s reply reports no cache misses", pass+1, i, mix[i].kind)
		}
	}
}

// checkReferences compares sampled replies with direct runs.
func checkReferences(ck *checks, refs map[int][]byte, replies []jobReply) {
	for i, ref := range refs {
		got, err := canonical(replies[i].results)
		ck.expect(err == nil && bytes.Equal(got, ref), "request %d: reply differs from the direct exp run (%v)", i, err)
	}
}

func (c *cobradWL) simMetrics() []sim.Metrics { return c.last }

func (c *cobradWL) extras() []reportRow {
	var cold, warm, all []float64
	for p, replies := range c.replies {
		if p >= len(c.walls) {
			break // traced pass
		}
		for _, r := range replies {
			ms := float64(r.latency) / 1e6
			all = append(all, ms)
			if r.misses > 0 {
				cold = append(cold, ms)
			} else {
				warm = append(warm, ms)
			}
		}
	}
	rows := []reportRow{
		{"cold_p50_ms", median(cold), "ms", len(cold)},
		{"warm_p50_ms", median(warm), "ms", len(warm)},
		{"jobs_per_s", float64(c.requests) / median(c.walls), "1/s", len(c.walls)},
	}
	if p99, err := quantile(all, 0.99); err == nil {
		rows = append(rows, reportRow{"job_p99_ms", p99, "ms", len(all)})
	}
	return rows
}

// probes derives the srv layers from the traced pass's wire timestamps
// and the server's registry counters, and times journal appends.
func (c *cobradWL) probes(tr *tracer, out map[string]float64) error {
	var queue, coldRun, warmRun, httpMS []float64
	var rejected int
	for _, r := range c.traced {
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			rejected++
		}
		if r.status != http.StatusOK || r.err != nil {
			continue
		}
		queue = append(queue, float64(r.started.Sub(r.submitted))/1e6)
		run := float64(r.finished.Sub(r.started)) / 1e6
		if r.misses > 0 {
			coldRun = append(coldRun, run)
		} else {
			warmRun = append(warmRun, run)
		}
		httpMS = append(httpMS, float64(r.latency-r.finished.Sub(r.submitted))/1e6)
	}
	out["srv.queue_wait_ms"] = median(queue)
	out["srv.cold_run_ms"] = median(coldRun)
	out["srv.warm_run_ms"] = median(warmRun)
	out["srv.http_ms"] = median(httpMS)
	out["srv.rejected"] = float64(rejected)
	snap := c.reg.Snapshot()
	hits, misses := snap["srv.cache.hits"].Count, snap["srv.cache.misses"].Count
	if hits+misses > 0 {
		out["srv.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	return journalProbe(tr, c.last, 20, out)
}

func (c *cobradWL) close() {
	c.stopServer()
	exp.ResetMemos()
	if c.tmp != "" {
		// The journals live under the build directory's tmp; one left
		// behind by a failed removal is harmless.
		_ = os.RemoveAll(c.tmp)
	}
}
