package srv

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"cobra/internal/exp"
	"cobra/internal/sim"
)

// TestSpecCoresValidation pins the cores field of the job wire format:
// 0 normalizes to the single-core model, negatives and counts above
// the server's maxCores cap are client errors.
func TestSpecCoresValidation(t *testing.T) {
	cfg := Config{}.withDefaults()
	base := JobSpec{RunSpec: exp.RunSpec{
		App: "DegreeCount", Input: "URND", Schemes: []sim.SchemeID{sim.SchemeIDBaseline},
	}}

	sp := base
	if err := sp.normalize(cfg); err != nil {
		t.Fatal(err)
	}
	if sp.Cores != 1 {
		t.Fatalf("cores 0 normalized to %d, want 1", sp.Cores)
	}

	sp = base
	sp.Cores = maxCores
	if err := sp.normalize(cfg); err != nil {
		t.Fatalf("cores at the limit rejected: %v", err)
	}

	sp = base
	sp.Cores = -1
	if err := sp.normalize(cfg); err == nil || !strings.Contains(err.Error(), "negative core count") {
		t.Fatalf("negative cores: err = %v", err)
	}

	sp = base
	sp.Cores = maxCores + 1
	if err := sp.normalize(cfg); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("cores over limit: err = %v", err)
	}
}

// TestRunSyncMultiCore runs a sharded job end to end over HTTP and
// checks the merged metrics carry the requested core count.
func TestRunSyncMultiCore(t *testing.T) {
	_, ts, _ := newTestServer(t, nil)
	spec := JobSpec{RunSpec: exp.RunSpec{
		App: "DegreeCount", Input: "URND", Scale: 9, Seed: 7,
		Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDCOBRA}, Cores: 4,
	}}
	code, body := postJSON(t, ts.URL+"/v1/run", spec)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/run = %d: %s", code, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatal(err)
	}
	if view.State != JobDone || len(view.Results) != 2 {
		t.Fatalf("view = %+v", view)
	}
	for _, m := range view.Results {
		if m.Cores != 4 {
			t.Fatalf("%s: merged Cores = %d, want 4", m.Scheme, m.Cores)
		}
	}

	// Over-limit jobs are rejected at intake with a 400.
	spec.Cores = 1 << 10
	code, body = postJSON(t, ts.URL+"/v1/run", spec)
	if code != http.StatusBadRequest {
		t.Fatalf("over-limit cores: POST /v1/run = %d: %s", code, body)
	}
}
