package obsv

// Run manifest: the provenance record a campaign emits next to its
// artifact. Two runs are diffable iff their manifests say what
// produced them — architecture fingerprint, Go toolchain, parallelism,
// per-figure durations, and the final metric snapshot — so a perf
// regression or a divergent table can be traced to the exact knob that
// changed. Written atomically via internal/fsx: a crashed campaign
// never publishes a torn manifest.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"cobra/internal/fsx"
)

// FigureTiming is the wall-clock record of one regenerated figure.
type FigureTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// CheckpointInfo summarizes journal use during the run.
type CheckpointInfo struct {
	Path     string `json:"path"`
	Replayed uint64 `json:"replayed"`
	Recorded uint64 `json:"recorded"`
}

// FleetNode is one worker's dispatch accounting in a distributed
// campaign: cells dispatched/completed/failed on it, cells it received
// as steals from dead workers, plus its client's transport health.
type FleetNode struct {
	Addr           string `json:"addr"`
	Healthy        bool   `json:"healthy"`
	Dispatched     uint64 `json:"dispatched"`
	Completed      uint64 `json:"completed"`
	Failed         uint64 `json:"failed"`
	Stolen         uint64 `json:"stolen"`
	ClientAttempts uint64 `json:"client_attempts"`
	ClientRetries  uint64 `json:"client_retries"`
	Breaker        string `json:"breaker"`
}

// FleetInfo summarizes a distributed campaign for the manifest: the
// per-node accounting plus fleet-wide totals. Gathered counts the
// cells collected from workers; the caller's cell store dedupes and
// replays upstream, so it equals Completed.
type FleetInfo struct {
	Workers    []FleetNode `json:"workers"`
	Dispatched uint64      `json:"dispatched"`
	Completed  uint64      `json:"completed"`
	Failed     uint64      `json:"failed"`
	Stolen     uint64      `json:"stolen"`
	Gathered   uint64      `json:"gathered"`
}

// Manifest is the run provenance record.
type Manifest struct {
	Tool       string `json:"tool"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`

	// Campaign identity: everything that determines the artifact bytes.
	ArchFingerprint string `json:"arch_fingerprint,omitempty"`
	Scale           int    `json:"scale,omitempty"`
	Seed            uint64 `json:"seed"`
	Parallel        int    `json:"parallel"`

	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	WallSeconds float64   `json:"wall_seconds"`

	Figures    []FigureTiming  `json:"figures,omitempty"`
	Checkpoint *CheckpointInfo `json:"checkpoint,omitempty"`
	Fleet      *FleetInfo      `json:"fleet,omitempty"`

	// Metrics is the registry snapshot at campaign end.
	Metrics map[string]MetricValue `json:"metrics,omitempty"`
}

// NewManifest starts a manifest for the named tool, stamping the
// toolchain and host shape and the start time.
func NewManifest(tool string) *Manifest {
	return &Manifest{
		Tool:       tool,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Start:      time.Now().UTC(),
	}
}

// AddFigure records one figure's regeneration time.
func (m *Manifest) AddFigure(name string, d time.Duration) {
	m.Figures = append(m.Figures, FigureTiming{Name: name, Seconds: d.Seconds()})
}

// Finish stamps the end time and attaches the registry snapshot (r may
// be nil).
func (m *Manifest) Finish(r *Registry) {
	m.End = time.Now().UTC()
	m.WallSeconds = m.End.Sub(m.Start).Seconds()
	if r != nil {
		m.Metrics = r.Snapshot()
	}
}

// Write publishes the manifest atomically (temp + fsync + rename, see
// internal/fsx) as indented JSON.
func (m *Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obsv: encoding manifest: %w", err)
	}
	return fsx.WriteFileAtomicBytes(path, append(data, '\n'))
}

// ReadManifest loads a manifest written by Write.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obsv: reading manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obsv: decoding manifest %s: %w", path, err)
	}
	return &m, nil
}
