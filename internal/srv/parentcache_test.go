package srv

// Cross-version result cache: a cobrad -cache journal recorded by an
// earlier cobrad must keep replaying. The cell fingerprints a job
// derives are the journal's keys, so any drift in how a job names its
// cells (figure name, knob order, arch fingerprint, window suffix)
// would silently turn every restored cell into a miss.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"cobra/internal/exp"
	"cobra/internal/sim"
)

// parentCache is a result-cache journal recorded at scale 8 by
//
//	cobrad -cache parent-cache.jsonl -workers 1
//
// serving, in order, the jobs of parentCacheJobs:
//
//	cobractl run -app DegreeCount -input URND -scale 8 -schemes Baseline,PB-SW,PB-SW-IDEAL,COBRA,PHI
//	cobractl run -app NeighborPopulate -input URND -scale 8 -nuca -cores 4 -bins 256 -schemes Baseline,PB-SW,COBRA
//	cobractl run -app StreamIngest -input URND -scale 8 -stream -windows 3 -schemes COBRA
const parentCache = "testdata/parent-cache.jsonl"

// parentCacheJobs are the jobs that recorded parentCache (cobractl's
// default seed is 42).
func parentCacheJobs() []exp.RunSpec {
	return []exp.RunSpec{
		{App: "DegreeCount", Input: "URND", Scale: 8, Seed: 42, Schemes: []sim.SchemeID{
			sim.SchemeIDBaseline, sim.SchemeIDPBSW, sim.SchemeIDPBIdeal, sim.SchemeIDCOBRA, sim.SchemeIDPHI}},
		{App: "NeighborPopulate", Input: "URND", Scale: 8, Seed: 42, Bins: 256, NUCA: true, Cores: 4,
			Schemes: []sim.SchemeID{sim.SchemeIDBaseline, sim.SchemeIDPBSW, sim.SchemeIDCOBRA}},
		{App: "StreamIngest", Input: "URND", Scale: 8, Seed: 42, Kind: exp.KindStream, Windows: 3,
			Schemes: []sim.SchemeID{sim.SchemeIDCOBRA}},
	}
}

// readJournal returns a journal's entries as raw metrics JSON by
// fingerprint, read line by line rather than through exp.Journal.
func readJournal(t *testing.T, path string) map[string][]byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e struct {
			K string          `json:"k"`
			M json.RawMessage `json:"m"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("journal line: %v", err)
		}
		out[e.K] = e.M
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParentCacheReplays opens a server on a copy of parentCache and
// resubmits the jobs that recorded it: every cell and window is a cache
// hit, nothing simulates, and every result equals the journal's entry
// byte for byte.
func TestParentCacheReplays(t *testing.T) {
	src, err := os.ReadFile(parentCache)
	if err != nil {
		t.Fatal(err)
	}
	cachePath := filepath.Join(t.TempDir(), "cache.jsonl")
	if err := os.WriteFile(cachePath, src, 0o644); err != nil {
		t.Fatal(err)
	}
	entries := readJournal(t, parentCache)
	s, ts, reg := newTestServer(t, func(c *Config) { c.CachePath = cachePath })
	if s.CacheLen() != len(entries) {
		t.Fatalf("restored %d cells, journal holds %d", s.CacheLen(), len(entries))
	}

	// want returns the journal's metrics for one cell or window.
	want := func(k exp.CellKey) []byte {
		m, ok := entries[k.Fingerprint()]
		if !ok {
			t.Fatalf("journal has no cell %s", k.Fingerprint())
		}
		return m
	}
	same := func(what string, got sim.Metrics, want []byte) {
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Fatalf("%s differs from the journal:\n got %s\nwant %s", what, b, want)
		}
	}

	cells := 0
	for _, spec := range parentCacheJobs() {
		code, body := postJSON(t, ts.URL+"/v1/run", JobSpec{RunSpec: spec})
		if code != http.StatusOK {
			t.Fatalf("%s/%s = %d: %s", spec.App, spec.Input, code, body)
		}
		var v JobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if err := spec.Normalize(exp.Limits{}); err != nil {
			t.Fatal(err)
		}
		n := len(spec.Schemes)
		if spec.Kind == exp.KindStream {
			n = spec.Windows
		}
		cells += n
		if v.CacheHits != n || v.CacheMisses != 0 {
			t.Fatalf("%s/%s: hits/misses = %d/%d, want %d/0", spec.App, spec.Input, v.CacheHits, v.CacheMisses, n)
		}
		if len(v.Results) != len(spec.Schemes) {
			t.Fatalf("%s/%s: %d results for %d schemes", spec.App, spec.Input, len(v.Results), len(spec.Schemes))
		}
		if spec.Kind == exp.KindStream {
			if len(v.Windows) != spec.Windows {
				t.Fatalf("%s/%s: %d windows, want %d", spec.App, spec.Input, len(v.Windows), spec.Windows)
			}
			for w, m := range v.Windows {
				k := spec.CellKey("srv", spec.Schemes[0], sim.DefaultArch())
				k.Window = w + 1
				same(k.Fingerprint(), m, want(k))
			}
			continue
		}
		for i, id := range spec.Schemes {
			k := spec.CellKey("srv", id, sim.DefaultArch())
			same(k.Fingerprint(), v.Results[i], want(k))
		}
	}
	if cells != len(entries) {
		t.Fatalf("jobs replayed %d cells, journal holds %d", cells, len(entries))
	}
	if got := reg.Counter("srv.cache.misses").Value(); got != 0 {
		t.Fatalf("srv.cache.misses = %d, want 0", got)
	}
	if got := reg.Counter("srv.cache.hits").Value(); got != uint64(cells) {
		t.Fatalf("srv.cache.hits = %d, want %d", got, cells)
	}
}
