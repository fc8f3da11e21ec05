package sim

// The scheme table: every execution scheme's name, metric scope and
// shape, in one place, with Run dispatching beside it.
//
// Scheme (a string) remains the simulator's internal spelling — it is
// what Metrics carries and what checkpoint fingerprints embed — but
// every API boundary (exp.RunSpec, srv.JobSpec, the cobrad wire
// format, fleet cell translation) passes the typed SchemeID instead of
// shuttling raw strings around. A SchemeID marshals to the canonical
// scheme name, so wire formats are unchanged; unmarshalling
// additionally accepts legacy spellings (case variants, surrounding
// space) for back-compat with pre-typed clients.
//
// Adding a scheme is one Scheme constant, one SchemeID, one row of
// schemeTable, one case in Run, and its runner.

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Scheme names an execution scheme.
type Scheme string

// Execution schemes (Figure 10's bars plus the §VII-C specializations).
const (
	SchemeBaseline Scheme = "Baseline"
	SchemePBSW     Scheme = "PB-SW"
	SchemePBIdeal  Scheme = "PB-SW-IDEAL"
	SchemeCOBRA    Scheme = "COBRA"
	SchemeComm     Scheme = "COBRA-COMM"
	SchemePHI      Scheme = "PHI"
)

// SchemeID is the typed identity of an execution scheme. The zero
// value is invalid, so an absent or unparsed scheme can never be
// mistaken for a real one.
type SchemeID uint8

// Scheme identities, in the canonical presentation order (Figure 10's
// bars plus the §VII-C specializations).
const (
	SchemeIDInvalid SchemeID = iota
	SchemeIDBaseline
	SchemeIDPBSW
	SchemeIDPBIdeal
	SchemeIDCOBRA
	SchemeIDComm
	SchemeIDPHI
)

// schemeInfo is one row of the scheme table.
type schemeInfo struct {
	name Scheme
	// scope is the obsv metric scope of the scheme's runs. Constant
	// strings only: no formatting on any path.
	scope string
	// composed marks a scheme assembled from a PB-SW sweep rather than
	// run: it has no runner, so Run rejects it and it cannot drive the
	// windowed stream engine.
	composed bool
}

// schemeTable holds every scheme, indexed by SchemeID. The invalid row
// carries the scope unknown schemes report under.
var schemeTable = [...]schemeInfo{
	SchemeIDInvalid:  {scope: "sim.other"},
	SchemeIDBaseline: {name: SchemeBaseline, scope: "sim.baseline"},
	SchemeIDPBSW:     {name: SchemePBSW, scope: "sim.pbsw"},
	SchemeIDPBIdeal:  {name: SchemePBIdeal, scope: "sim.pbideal", composed: true},
	SchemeIDCOBRA:    {name: SchemeCOBRA, scope: "sim.cobra"},
	SchemeIDComm:     {name: SchemeComm, scope: "sim.cobracomm"},
	SchemeIDPHI:      {name: SchemePHI, scope: "sim.phi"},
}

// Run executes one scheme through its runner: COBRA and COBRA-COMM with
// the default CobraOpt, PB-SW and PHI at bins (passed through
// unchanged; the others ignore it). PB-SW-IDEAL is composed from a
// sweep (IdealPB), so Run returns an error for it.
func Run(app *App, id SchemeID, bins int, arch Arch) (Metrics, error) {
	switch id {
	case SchemeIDBaseline:
		return RunBaseline(app, arch)
	case SchemeIDPBSW:
		return RunPBSW(app, bins, arch)
	case SchemeIDCOBRA:
		return RunCOBRA(app, CobraOpt{}, arch)
	case SchemeIDComm:
		return RunCOBRA(app, CobraOpt{Coalesce: true}, arch)
	case SchemeIDPHI:
		return RunPHI(app, bins, arch)
	}
	if id.Valid() {
		return Metrics{}, fmt.Errorf("sim: scheme %s is composed from a PB-SW sweep and has no runner", id)
	}
	return Metrics{}, fmt.Errorf("sim: cannot run invalid %s", id)
}

// SchemeIDs returns every valid scheme id in presentation order.
func SchemeIDs() []SchemeID {
	ids := make([]SchemeID, 0, len(schemeTable)-1)
	for id := SchemeIDInvalid + 1; int(id) < len(schemeTable); id++ {
		ids = append(ids, id)
	}
	return ids
}

// Valid reports whether id names a real scheme.
func (id SchemeID) Valid() bool {
	return id > SchemeIDInvalid && int(id) < len(schemeTable)
}

// Scheme returns the canonical simulator spelling ("" for invalid).
func (id SchemeID) Scheme() Scheme {
	if !id.Valid() {
		return ""
	}
	return schemeTable[id].name
}

// String returns the canonical name (or a diagnostic for invalid ids).
func (id SchemeID) String() string {
	if !id.Valid() {
		return fmt.Sprintf("SchemeID(%d)", uint8(id))
	}
	return string(schemeTable[id].name)
}

// Streamable reports whether the scheme has a runner of its own, and
// so can drive the windowed stream engine one epoch at a time.
func (id SchemeID) Streamable() bool {
	return id.Valid() && !schemeTable[id].composed
}

// schemeScope maps a scheme to its metric-name scope ("sim.other" for
// a name outside the table).
func schemeScope(s Scheme) string {
	for _, row := range schemeTable[1:] {
		if row.name == s {
			return row.scope
		}
	}
	return schemeTable[SchemeIDInvalid].scope
}

// ParseSchemeID resolves a canonical scheme name, strictly (exact
// case): checkpoint fingerprints and wire formats key on the canonical
// spelling, so generated identifiers must never drift.
func ParseSchemeID(name string) (SchemeID, error) {
	for _, id := range SchemeIDs() {
		if name == string(id.Scheme()) {
			return id, nil
		}
	}
	return SchemeIDInvalid, fmt.Errorf("sim: unknown scheme %q (want one of %s)", name, schemeNameList())
}

// ParseSchemeIDLenient resolves a scheme name accepting the legacy
// input forms pre-typed clients sent: surrounding whitespace and any
// case ("baseline", "pb-sw"). The resolved id still spells itself
// canonically, so leniency never leaks into fingerprints or output.
func ParseSchemeIDLenient(name string) (SchemeID, error) {
	trimmed := strings.TrimSpace(name)
	for _, id := range SchemeIDs() {
		if strings.EqualFold(trimmed, string(id.Scheme())) {
			return id, nil
		}
	}
	return SchemeIDInvalid, fmt.Errorf("sim: unknown scheme %q (want one of %s)", name, schemeNameList())
}

func schemeNameList() string {
	return strings.Join(SchemeNames(SchemeIDs()), ", ")
}

// MarshalJSON emits the canonical scheme name, keeping the wire format
// byte-compatible with the historical []string spelling.
func (id SchemeID) MarshalJSON() ([]byte, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("sim: cannot marshal invalid SchemeID(%d)", uint8(id))
	}
	return json.Marshal(string(id.Scheme()))
}

// UnmarshalJSON accepts a JSON string naming a scheme — canonical or
// legacy (case-insensitive) — for wire back-compat.
func (id *SchemeID) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("sim: scheme must be a JSON string: %w", err)
	}
	parsed, err := ParseSchemeIDLenient(s)
	if err != nil {
		return err
	}
	*id = parsed
	return nil
}

// SchemeNames renders ids as their canonical strings (display and
// legacy-wire helpers).
func SchemeNames(ids []SchemeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = string(id.Scheme())
	}
	return out
}
