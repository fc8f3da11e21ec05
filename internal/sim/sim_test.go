package sim

// Internal tests for unexported machinery. The functional scheme tests
// live in schemes_test.go (package sim_test) on top of the shared
// workload builders in internal/simtest; the cross-scheme differential
// oracle is in internal/simtest.

import (
	"encoding/json"
	"strings"
	"testing"

	"cobra/internal/core"
)

func TestAllocDisjointPages(t *testing.T) {
	m := NewMach(DefaultArch())
	a := m.Alloc(100)
	b := m.Alloc(100)
	if a.Base%4096 != 0 || b.Base%4096 != 0 {
		t.Fatal("regions not page-aligned")
	}
	if b.Base < a.Base+100 {
		t.Fatal("regions overlap")
	}
}

func TestRegroupBins(t *testing.T) {
	bins := make([][]core.Tuple, 10)
	total := 0
	for i := range bins {
		for j := 0; j <= i; j++ {
			bins[i] = append(bins[i], core.Tuple{Key: uint32(i)})
			total++
		}
	}
	out := regroupBins(bins, 3)
	if len(out) > 3 {
		t.Fatalf("regrouped into %d bins, want <= 3", len(out))
	}
	n := 0
	for _, b := range out {
		n += len(b)
	}
	if n != total {
		t.Fatalf("regrouping lost tuples: %d vs %d", n, total)
	}
}

func TestPhaseMemHelpers(t *testing.T) {
	a := PhaseMem{L1Misses: 1, DRAMReadLines: 2, DRAMWriteLines: 3}
	b := PhaseMem{L1Misses: 10, DRAMReadLines: 20, DRAMWriteLines: 30}
	s := a.Sum(b)
	if s.L1Misses != 11 || s.DRAMReadLines != 22 {
		t.Fatalf("Sum = %+v", s)
	}
	if a.DRAMBytes() != (2+3)*64 {
		t.Fatalf("DRAMBytes = %d", a.DRAMBytes())
	}
	if d := b.sub(a); d.L1Misses != 9 {
		t.Fatalf("sub = %+v", d)
	}
}

func TestSpeedupZeroSafe(t *testing.T) {
	var m Metrics
	if m.Speedup(Metrics{Cycles: 100}) != 0 {
		t.Fatal("zero-cycle speedup should be 0")
	}
}

func TestSchemeScopeNames(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeBaseline: "sim.baseline",
		SchemePBSW:     "sim.pbsw",
		SchemePBIdeal:  "sim.pbideal",
		SchemeCOBRA:    "sim.cobra",
		SchemeComm:     "sim.cobracomm",
		SchemePHI:      "sim.phi",
		Scheme("??"):   "sim.other",
	} {
		if got := schemeScope(s); got != want {
			t.Fatalf("schemeScope(%s) = %s, want %s", s, got, want)
		}
	}
}

// TestSchemeTable pins every row of the scheme table and what derives
// from it: strict and lenient parsing, the JSON wire form,
// streamability, and Run's refusal of the composed scheme. The scopes
// are pinned by TestSchemeScopeNames.
func TestSchemeTable(t *testing.T) {
	rows := []struct {
		id         SchemeID
		name       Scheme
		lenient    string // a legacy spelling that resolves to id
		streamable bool
	}{
		{SchemeIDBaseline, SchemeBaseline, " baseline", true},
		{SchemeIDPBSW, SchemePBSW, "pb-sw", true},
		{SchemeIDPBIdeal, SchemePBIdeal, "Pb-Sw-Ideal ", false},
		{SchemeIDCOBRA, SchemeCOBRA, "cobra", true},
		{SchemeIDComm, SchemeComm, "cobra-comm", true},
		{SchemeIDPHI, SchemePHI, "phi", true},
	}
	if ids := SchemeIDs(); len(ids) != len(rows) {
		t.Fatalf("SchemeIDs() = %v, want %d schemes", ids, len(rows))
	}
	for i, r := range rows {
		if got := SchemeIDs()[i]; got != r.id {
			t.Errorf("SchemeIDs()[%d] = %v, want %v (presentation order)", i, got, r.id)
		}
		if r.id.Scheme() != r.name || r.id.String() != string(r.name) || !r.id.Valid() {
			t.Errorf("%v: Scheme() = %q, String() = %q, Valid() = %v", r.id, r.id.Scheme(), r.id.String(), r.id.Valid())
		}
		if got, err := ParseSchemeID(string(r.name)); got != r.id || err != nil {
			t.Errorf("ParseSchemeID(%q) = %v, %v", r.name, got, err)
		}
		if _, err := ParseSchemeID(r.lenient); err == nil {
			t.Errorf("ParseSchemeID(%q) accepted a non-canonical spelling", r.lenient)
		}
		if got, err := ParseSchemeIDLenient(r.lenient); got != r.id || err != nil {
			t.Errorf("ParseSchemeIDLenient(%q) = %v, %v", r.lenient, got, err)
		}
		b, err := json.Marshal(r.id)
		if err != nil || string(b) != `"`+string(r.name)+`"` {
			t.Errorf("json.Marshal(%v) = %s, %v", r.id, b, err)
		}
		var back SchemeID
		if err := json.Unmarshal(b, &back); err != nil || back != r.id {
			t.Errorf("JSON round-trip of %v = %v, %v", r.id, back, err)
		}
		if r.id.Streamable() != r.streamable {
			t.Errorf("%v: Streamable() = %v, want %v", r.id, r.id.Streamable(), r.streamable)
		}
	}

	for _, bad := range []string{"", "Fastest", "COBRA-"} {
		for _, parse := range []func(string) (SchemeID, error){ParseSchemeID, ParseSchemeIDLenient} {
			if id, err := parse(bad); err == nil || id != SchemeIDInvalid {
				t.Errorf("parsing %q = %v, %v; want an error", bad, id, err)
			} else if !strings.Contains(err.Error(), "PB-SW-IDEAL") {
				t.Errorf("parsing %q: error does not list valid schemes: %v", bad, err)
			}
		}
	}
	var id SchemeID
	if err := json.Unmarshal([]byte(`"Fastest"`), &id); err == nil {
		t.Error("unknown scheme name unmarshalled")
	}
	if err := json.Unmarshal([]byte(`3`), &id); err == nil {
		t.Error("non-string scheme unmarshalled")
	}
	if _, err := json.Marshal(SchemeIDInvalid); err == nil {
		t.Error("invalid SchemeID marshalled")
	}
	for _, bad := range []SchemeID{SchemeIDInvalid, SchemeID(len(schemeTable))} {
		if bad.Valid() || bad.Streamable() || bad.Scheme() != "" {
			t.Errorf("%v reports itself valid", bad)
		}
	}

	// Run refuses what has no runner before touching the app.
	for _, id := range []SchemeID{SchemeIDPBIdeal, SchemeIDInvalid} {
		if m, err := Run(nil, id, 16, DefaultArch()); err == nil || m.Cycles != 0 {
			t.Errorf("Run(%v) = %+v, %v; want an error", id, m, err)
		}
	}
}
