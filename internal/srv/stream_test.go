package srv

// Streamed jobs over the HTTP surface: POST /v1/stream runs the
// windowed engine end to end (merged result + live per-window views),
// window results checkpoint through the cache journal at window
// granularity (a failed run resumes where it died), and the /v1 error
// envelope carries stable machine-readable codes. Plus the wire-format
// golden fixtures: every pre-RunSpec JobSpec body must keep decoding.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cobra/internal/exp"
	"cobra/internal/fault"
	"cobra/internal/sim"
	"cobra/internal/stream"
)

// streamSpec is the tiny streamed job the tests run: 3 windows of 256
// updates at scale 8.
func streamSpec() JobSpec {
	return JobSpec{RunSpec: exp.RunSpec{
		App: "StreamIngest", Input: "URND", Scale: 8, Seed: 9,
		Schemes: []sim.SchemeID{sim.SchemeIDCOBRA},
		Kind:    exp.KindStream, Windows: 3, WindowUpdates: 256,
	}}
}

// waitDone polls a job to a terminal state.
func waitDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch v.State {
		case JobDone, JobFailed, JobCanceled:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamJobEndToEnd: POST /v1/stream runs the windowed engine and
// the job view carries one merged result plus per-window metrics that
// are byte-identical (over JSON) to driving the stream engine directly.
func TestStreamJobEndToEnd(t *testing.T) {
	_, ts, reg := newTestServer(t, nil)
	spec := streamSpec()
	spec.Kind = "" // the endpoint forces it

	code, body := postJSON(t, ts.URL+"/v1/stream", spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/stream = %d: %s", code, body)
	}
	var accepted JobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Spec.Kind != exp.KindStream {
		t.Fatalf("accepted kind = %q, want %q", accepted.Spec.Kind, exp.KindStream)
	}
	v := waitDone(t, ts.URL, accepted.ID)
	if v.State != JobDone {
		t.Fatalf("stream job ended %s: %s", v.State, v.Error)
	}
	if len(v.Results) != 1 || len(v.Windows) != 3 {
		t.Fatalf("results/windows = %d/%d, want 1/3", len(v.Results), len(v.Windows))
	}
	if v.CacheMisses != 3 || v.CacheHits != 0 {
		t.Fatalf("hits/misses = %d/%d, want 0/3", v.CacheHits, v.CacheMisses)
	}

	// Direct engine run with the normalized spec: same windows, same fold.
	norm := streamSpec()
	if _, err := norm.normalize(Config{}.withDefaults()); err != nil {
		t.Fatal(err)
	}
	w, err := norm.StreamWorkload()
	if err != nil {
		t.Fatal(err)
	}
	r, err := stream.Run(w, stream.Config{Scheme: sim.SchemeCOBRA, Arch: sim.DefaultArch()})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(struct {
		R []sim.Metrics
		W []sim.Metrics
	}{v.Results, v.Windows})
	want, _ := json.Marshal(struct {
		R []sim.Metrics
		W []sim.Metrics
	}{[]sim.Metrics{r.Merged}, r.PerWindow})
	if !bytes.Equal(got, want) {
		t.Fatalf("service stream metrics diverge from the engine:\n got %s\nwant %s", got, want)
	}
	if reg.Counter("srv.stream.windows_done").Value() != 3 {
		t.Fatalf("windows_done = %v, want 3", reg.Counter("srv.stream.windows_done").Value())
	}
}

// TestStreamJobWindowResume: a completion fault kills the streamed job
// after its first window is journaled; the resubmission replays that
// window from the cache and computes only the rest — checkpoint/resume
// at window granularity through the existing journal.
func TestStreamJobWindowResume(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "cache.jsonl")
	_, ts, reg := newTestServer(t, func(c *Config) { c.CachePath = cachePath })

	// Window 1 records cleanly, window 2's completion fails.
	plan, err := fault.Parse("srv.worker.complete:at=2:err=eio")
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	defer fault.Deactivate()

	spec := streamSpec()
	code, body := postJSON(t, ts.URL+"/v1/run", spec)
	if code != http.StatusInternalServerError {
		t.Fatalf("faulted stream run = %d: %s", code, body)
	}
	var failed JobView
	if err := json.Unmarshal(body, &failed); err != nil {
		t.Fatal(err)
	}
	if failed.State != JobFailed || len(failed.Windows) != 1 {
		t.Fatalf("failed view: state=%s windows=%d, want failed/1", failed.State, len(failed.Windows))
	}

	fault.Deactivate()
	code, body = postJSON(t, ts.URL+"/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("resumed stream run = %d: %s", code, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.CacheHits != 1 || v.CacheMisses != 2 {
		t.Fatalf("resume hits/misses = %d/%d, want 1/2", v.CacheHits, v.CacheMisses)
	}
	if len(v.Windows) != 3 || len(v.Results) != 1 {
		t.Fatalf("resumed results/windows = %d/%d, want 1/3", len(v.Results), len(v.Windows))
	}
	if reg.Counter("srv.stream.windows_replayed").Value() != 1 {
		t.Fatalf("windows_replayed = %v, want 1", reg.Counter("srv.stream.windows_replayed").Value())
	}

	// A third, identical run replays every window.
	code, body = postJSON(t, ts.URL+"/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("replayed stream run = %d: %s", code, body)
	}
	var replay JobView
	if err := json.Unmarshal(body, &replay); err != nil {
		t.Fatal(err)
	}
	if replay.CacheHits != 3 || replay.CacheMisses != 0 {
		t.Fatalf("full replay hits/misses = %d/%d, want 3/0", replay.CacheHits, replay.CacheMisses)
	}
	a, _ := json.Marshal(v.Results)
	b, _ := json.Marshal(replay.Results)
	if !bytes.Equal(a, b) {
		t.Fatalf("replayed merged result diverged:\n%s\n%s", a, b)
	}
}

// TestStreamJobSingleFlight: two concurrent identical streamed jobs
// simulate each window once. Every window goes through the result
// cache's single flight, so whichever job reaches a window second joins
// (or replays) the first's run of it, and both return the same result.
// A 200 ms completion delay holds each window's run open so the jobs
// overlap.
func TestStreamJobSingleFlight(t *testing.T) {
	_, ts, reg := newTestServer(t, nil)
	plan, err := fault.Parse("srv.worker.complete:every=1:delay=200ms")
	if err != nil {
		t.Fatal(err)
	}
	fault.Activate(plan)
	defer fault.Deactivate()

	body, err := json.Marshal(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	views := make([]JobView, 2)
	errs := make([]error, len(views))
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("job %d: status %d", i, resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&views[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := reg.Counter("srv.cache.hits").Value(), reg.Counter("srv.cache.misses").Value()
	if hits != 3 || misses != 3 {
		t.Fatalf("cache hits/misses = %d/%d, want 3/3 (each of 3 windows simulated once)", hits, misses)
	}
	if got := views[0].CacheHits + views[1].CacheHits; got != 3 {
		t.Fatalf("job views report %d hits, want 3", got)
	}
	a, _ := json.Marshal([][]sim.Metrics{views[0].Results, views[0].Windows})
	b, _ := json.Marshal([][]sim.Metrics{views[1].Results, views[1].Windows})
	if !bytes.Equal(a, b) {
		t.Fatalf("concurrent identical stream jobs diverge:\n%s\n%s", a, b)
	}
}

// TestStreamJobValidation: stream-specific rejections flow through the
// same 400 path as every other invalid spec.
func TestStreamJobValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
	}{
		{"two schemes", `{"app":"StreamIngest","input":"URND","schemes":["Baseline","COBRA"],"kind":"stream"}`},
		{"offline app", `{"app":"DegreeCount","input":"URND","schemes":["Baseline"],"kind":"stream"}`},
		{"unstreamable scheme", `{"app":"StreamIngest","input":"URND","schemes":["PB-SW-IDEAL"],"kind":"stream"}`},
		{"windows without kind", `{"app":"DegreeCount","input":"URND","schemes":["Baseline"],"windows":3}`},
		{"unknown kind", `{"app":"DegreeCount","input":"URND","schemes":["Baseline"],"kind":"batch"}`},
	}
	for _, tc := range cases {
		for _, ep := range []string{"/v1/jobs", "/v1/stream"} {
			if tc.name == "windows without kind" && ep == "/v1/stream" {
				continue // the endpoint forces kind=stream, making this one valid
			}
			resp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var eb ErrorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", tc.name, ep, resp.StatusCode)
			}
			if eb.Code != ErrCodeInvalidSpec {
				t.Errorf("%s %s: code %q, want %q", tc.name, ep, eb.Code, ErrCodeInvalidSpec)
			}
		}
	}
}

// TestErrorEnvelope pins the /v1 error contract: stable code, human
// message, structured details, and the legacy "error" mirror.
func TestErrorEnvelope(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != ErrCodeNotFound || eb.Message == "" {
		t.Fatalf("envelope = %+v", eb)
	}
	if eb.Details["id"] != "j-999999" {
		t.Fatalf("details = %v, want id=j-999999", eb.Details)
	}
	if eb.Legacy != eb.Message {
		t.Fatalf("legacy mirror %q != message %q", eb.Legacy, eb.Message)
	}
}

// TestJobSpecWireFixtures: golden pre-RunSpec request bodies (captured
// from the flat JobSpec era) must keep decoding into the embedded
// RunSpec form, including legacy lower-case scheme spellings, and the
// canonical encoding must stay stable.
func TestJobSpecWireFixtures(t *testing.T) {
	fixtures := []struct {
		name string
		body string
		want JobSpec
	}{
		{
			"flat offline spec",
			`{"app":"DegreeCount","input":"URND","scale":10,"seed":7,"schemes":["Baseline","PB-SW","COBRA"],"bins":16,"nuca":true,"timeout_ms":60000}`,
			JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND", Scale: 10, Seed: 7,
				Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPBSW, sim.SchemeIDCOBRA},
				Bins:    16, NUCA: true}, TimeoutMS: 60_000},
		},
		{
			"legacy scheme case",
			`{"app":"PageRank","input":"KRON","schemes":["baseline","cobra-comm","phi"]}`,
			JobSpec{RunSpec: exp.RunSpec{App: "PageRank", Input: "KRON",
				Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDComm, sim.SchemeIDPHI}}},
		},
		{
			"multi-core spec",
			`{"app":"DegreeCount","input":"URND","scale":9,"schemes":["COBRA"],"cores":4}`,
			JobSpec{RunSpec: exp.RunSpec{App: "DegreeCount", Input: "URND", Scale: 9,
				Schemes: []sim.SchemeID{sim.SchemeIDCOBRA}, Cores: 4}},
		},
	}
	for _, tc := range fixtures {
		var got JobSpec
		dec := json.NewDecoder(strings.NewReader(tc.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("%s: old wire body no longer decodes: %v", tc.name, err)
		}
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(tc.want)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: decoded %s, want %s", tc.name, a, b)
		}
	}

	// Canonical encoding: typed schemes marshal as canonical names and
	// the stream knobs only appear when set.
	out, err := json.Marshal(streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"app":"StreamIngest","input":"URND","scale":8,"seed":9,"schemes":["COBRA"],"kind":"stream","windows":3,"window_updates":256}`
	if string(out) != want {
		t.Fatalf("canonical encoding drifted:\n got %s\nwant %s", out, want)
	}
}
