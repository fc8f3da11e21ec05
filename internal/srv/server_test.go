package srv

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"cobra/internal/exp"
	"cobra/internal/obsv"
	"cobra/internal/sim"
)

// newTestServer builds a started server + httptest frontend with a
// fresh registry, and tears both down at test end.
func newTestServer(t *testing.T, mod func(*Config)) (*Server, *httptest.Server, *obsv.Registry) {
	t.Helper()
	reg := obsv.New()
	cfg := Config{
		Workers:           2,
		QueueDepth:        8,
		DefaultScale:      8,
		MaxScale:          12,
		DefaultJobTimeout: time.Minute,
		Reg:               reg,
	}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return s, ts, reg
}

// postJSON posts a spec and decodes the JobView (or error) body.
func postJSON(t *testing.T, url string, spec any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestRunSyncByteIdenticalToDirect is the end-to-end acceptance test:
// a job submitted over HTTP returns metrics byte-identical (after a
// JSON round-trip) to calling exp.RunScheme directly with the same
// cell parameters.
func TestRunSyncByteIdenticalToDirect(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	spec := JobSpec{RunSpec: exp.RunSpec{
		App: "DegreeCount", Input: "URND", Scale: 10, Seed: 7,
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPBSW, sim.SchemeIDCOBRA}, Bins: 16,
	}}
	code, body := postJSON(t, ts.URL+"/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/run = %d: %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != JobDone || len(view.Results) != 3 {
		t.Fatalf("view = %+v", view)
	}

	app, err := exp.BuildApp(spec.App, spec.Input, spec.Scale, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	arch := sim.DefaultArch()
	var direct []sim.Metrics
	for _, id := range spec.Schemes {
		m, err := exp.RunScheme(app, id.Scheme(), spec.Bins, arch)
		if err != nil {
			t.Fatal(err)
		}
		direct = append(direct, m)
	}
	got, err := json.Marshal(view.Results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("service metrics differ from direct RunScheme:\n got %s\nwant %s", got, want)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
	}{
		{"unknown app", `{"app":"NoSuchApp","input":"URND","schemes":["Baseline"]}`},
		{"unknown input", `{"app":"DegreeCount","input":"NOPE","schemes":["Baseline"]}`},
		{"unknown scheme", `{"app":"DegreeCount","input":"URND","schemes":["Fastest"]}`},
		{"no schemes", `{"app":"DegreeCount","input":"URND"}`},
		{"duplicate scheme", `{"app":"DegreeCount","input":"URND","schemes":["Baseline","Baseline"]}`},
		{"scale too small", `{"app":"DegreeCount","input":"URND","scale":2,"schemes":["Baseline"]}`},
		{"scale too large", `{"app":"DegreeCount","input":"URND","scale":29,"schemes":["Baseline"]}`},
		{"negative bins", `{"app":"DegreeCount","input":"URND","bins":-1,"schemes":["Baseline"]}`},
		{"unknown field", `{"app":"DegreeCount","input":"URND","schems":["Baseline"]}`},
		{"malformed json", `{"app":`},
	}
	for _, tc := range cases {
		for _, ep := range []string{"/v1/jobs", "/v1/run"} {
			resp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", tc.name, ep, resp.StatusCode)
			}
		}
	}
}

func TestAsyncJobLifecycleAndCacheHit(t *testing.T) {
	_, ts, reg := newTestServer(t, nil)
	spec := JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND", Scale: 9, Seed: 3,
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}}

	code, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs = %d: %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.ID == "" || (view.State != JobQueued && view.State != JobRunning) {
		t.Fatalf("accepted view = %+v", view)
	}

	// Poll until terminal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.State == JobDone {
			if len(v.Results) != 1 || v.Results[0].Scheme != sim.SchemeBaseline {
				t.Fatalf("done view = %+v", v)
			}
			if v.CacheMisses != 1 {
				t.Fatalf("first run cache_misses = %d, want 1", v.CacheMisses)
			}
			break
		}
		if v.State == JobFailed || v.State == JobCanceled {
			t.Fatalf("job ended %s: %s", v.State, v.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An identical spec is served from the fingerprint cache.
	code, body = postJSON(t, ts.URL+"/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("second run = %d: %s", code, body)
	}
	var second JobView
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 1 || second.CacheMisses != 0 {
		t.Fatalf("second run hits/misses = %d/%d, want 1/0", second.CacheHits, second.CacheMisses)
	}
	if reg.Counter("srv.cache.hits").Value() == 0 {
		t.Fatal("srv.cache.hits counter never moved")
	}

	// Unknown job id is a 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentIdenticalJobsRunOnce: identical sync jobs submitted
// at once compute their cell once (the others join the run or hit its
// stored result) and all return the same metrics bytes.
func TestConcurrentIdenticalJobsRunOnce(t *testing.T) {
	const n = 4
	_, ts, reg := newTestServer(t, func(c *Config) { c.Workers = n })
	body, err := json.Marshal(JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND", Scale: 12, Seed: 5,
		Schemes: []sim.SchemeID{sim.SchemeIDCOBRA}}})
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var view JobView
			if err := json.NewDecoder(resp.Body).Decode(&view); err != nil || view.State != JobDone {
				t.Errorf("job %d: state %q err %v (%s)", i, view.State, err, view.Error)
				return
			}
			results[i], _ = json.Marshal(view.Results)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("job %d metrics differ:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
	if misses, hits := reg.Counter("srv.cache.misses").Value(), reg.Counter("srv.cache.hits").Value(); misses != 1 || hits != n-1 {
		t.Fatalf("srv.cache misses/hits = %d/%d, want 1/%d", misses, hits, n-1)
	}
}

func TestRuntimeFailureIs500(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	// COBRA-COMM on a non-commutative app passes name validation but
	// fails at run time (§III-B) — surfaced as a failed job, not a
	// wedged one.
	spec := JobSpec{RunSpec: exp.RunSpec{App: "NeighborPopulate", Input: "URND", Scale: 8,
		Schemes: []sim.SchemeID{sim.SchemeIDComm}}}
	code, body := postJSON(t, ts.URL+"/v1/run", spec)
	if code != http.StatusInternalServerError {
		t.Fatalf("status = %d: %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != JobFailed || view.Error == "" {
		t.Fatalf("view = %+v", view)
	}
}

func TestHealthAndReadyFlipOnDrain(t *testing.T) {
	s, ts, _ := newTestServer(t, nil)
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain /readyz = %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain /healthz = %d, want 200 (liveness outlives readiness)", resp.StatusCode)
	}
	// Submissions after drain are 503, not 429 or 200.
	code, _ := postJSON(t, ts.URL+"/v1/jobs", JobSpec{RunSpec: exp.RunSpec{
		App: "DegreeCount", Input: "URND", Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %d, want 503", code)
	}
}

// promSample matches a Prometheus text-format sample line.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?[0-9+.eEIn-]+$`)

func TestMetricsEndpointPrometheusFormat(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	spec := JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND", Scale: 8, Seed: 1,
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}}
	if code, body := postJSON(t, ts.URL+"/v1/run", spec); code != http.StatusOK {
		t.Fatalf("run = %d: %s", code, body)
	}
	// Run it twice so the hit counter moves.
	if code, body := postJSON(t, ts.URL+"/v1/run", spec); code != http.StatusOK {
		t.Fatalf("rerun = %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, ln := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(ln, "# TYPE ") {
			continue
		}
		if !promSample.MatchString(ln) {
			t.Fatalf("unparseable exposition line %q", ln)
		}
	}
	for _, want := range []string{
		"# TYPE srv_queue_depth gauge",
		"# TYPE srv_cache_hits counter",
		"srv_cache_hits 1",
		"srv_cache_misses 1",
		"# TYPE srv_scheme_Baseline_wall histogram",
		"srv_scheme_Baseline_wall_count 2",
		`srv_scheme_Baseline_wall_bucket{le="+Inf"} 2`,
		"srv_jobs_completed 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestCacheSurvivesRestart(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "cache.jsonl")
	spec := JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND", Scale: 9, Seed: 11,
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDCOBRA}}}

	run := func(wantHits, wantMisses int) JobView {
		t.Helper()
		_, ts, _ := newTestServer(t, func(c *Config) { c.CachePath = cachePath })
		code, body := postJSON(t, ts.URL+"/v1/run", spec)
		if code != http.StatusOK {
			t.Fatalf("run = %d: %s", code, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.CacheHits != wantHits || v.CacheMisses != wantMisses {
			t.Fatalf("hits/misses = %d/%d, want %d/%d", v.CacheHits, v.CacheMisses, wantHits, wantMisses)
		}
		return v
	}
	first := run(0, 2)  // cold: both schemes simulated and journaled
	second := run(2, 0) // new server, same journal: both replayed

	a, _ := json.Marshal(first.Results)
	b, _ := json.Marshal(second.Results)
	if !bytes.Equal(a, b) {
		t.Fatalf("restart changed results:\n%s\n%s", a, b)
	}
}

func TestSubmitTimeoutClamped(t *testing.T) {
	s, _, _ := newTestServer(t, func(c *Config) { c.MaxJobTimeout = 50 * time.Millisecond })
	spec := JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND", Scale: 8,
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}, TimeoutMS: 10_000}
	job, err := s.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.timeoutFor(job.spec); got != 50*time.Millisecond {
		t.Fatalf("timeout = %v, want clamp to 50ms", got)
	}
	<-job.Done()
}

func TestMethodDiscipline(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/jobs = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", resp.StatusCode)
	}
}

func TestSpecNormalizeDefaults(t *testing.T) {
	cfg := Config{DefaultScale: 12}.withDefaults()
	sp := JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND",
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline}}}
	if err := sp.normalize(cfg); err != nil {
		t.Fatal(err)
	}
	if sp.Scale != 12 {
		t.Fatalf("default scale = %d, want 12", sp.Scale)
	}
	if len(sp.Schemes) != 1 || sp.Schemes[0] != sim.SchemeIDBaseline {
		t.Fatalf("schemes = %v", sp.Schemes)
	}
	// The cache key must tell a NUCA job from a plain one.
	nuca := sp
	nuca.NUCA = true
	if sp.CellKey("srv", sim.SchemeIDBaseline, sim.DefaultArch()) == nuca.CellKey("srv", sim.SchemeIDBaseline, sim.DefaultArch()) {
		t.Fatal("NUCA toggle does not change the cell key")
	}
}
