package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/explain"
	"repro/internal/perfobs"
	"repro/internal/runner"
)

// manifestSchemaVersion bumps when the manifest layout changes shape.
const manifestSchemaVersion = 1

// Manifest records what one sweep run actually did: the exact invocation,
// the configuration identity (hashed, so two runs are comparable at a
// glance), the trace fingerprints, the host, per-cell latency percentiles
// and aggregate throughput. Written at sweep end (or SIGINT) next to the
// run's outputs, it makes every figure reproducible and every performance
// regression diffable.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	RunID         string `json:"run_id"`
	// ConfigHash identifies the sweep configuration (scale, figure
	// selection, trace fingerprints). A resumed run hashes identically to
	// the run it resumes.
	ConfigHash string `json:"config_hash"`
	// Invocation is the exact command line (os.Args).
	Invocation []string `json:"invocation"`
	Scale      float64  `json:"scale,omitempty"`
	Figures    []string `json:"figures,omitempty"`
	// TraceFingerprints are the per-trace content hashes the checkpoint
	// keys embed.
	TraceFingerprints []string            `json:"trace_fingerprints,omitempty"`
	Checkpoint        *ManifestCheckpoint `json:"checkpoint,omitempty"`
	Host              ManifestHost        `json:"host"`
	StartTime         time.Time           `json:"start_time"`
	WallMs            int64               `json:"wall_ms"`
	// Outcome is "ok", "interrupted", or "failed: <reason>".
	Outcome string `json:"outcome"`

	Cells       ManifestCells      `json:"cells"`
	CellLatency TimingSnapshot     `json:"cell_latency"`
	Throughput  ManifestThroughput `json:"throughput"`
	Phases      []PhaseDuration    `json:"phases,omitempty"`
	// ProfileCacheBytes is what the run's experiments suites kept
	// resident in their profile caches (profile_cache_bytes).
	ProfileCacheBytes int64 `json:"profile_cache_bytes,omitempty"`

	// Attribution aggregates the simtrace cycle attribution across every
	// simulation of a cachesim run that armed it (component name →
	// cycles); AttribCells counts the simulations that contributed.
	Attribution map[string]int64 `json:"attribution,omitempty"`
	AttribCells int64            `json:"attrib_cells,omitempty"`
	// Explain is the merged explainability report (3C miss classes)
	// across every simulation of a cachesim run that armed the explain
	// recorder; ExplainCells counts the simulations that contributed.
	Explain      *explain.Report `json:"explain,omitempty"`
	ExplainCells int64           `json:"explain_cells,omitempty"`
	// Warmup records per-trace warm-up stabilization estimates from the
	// interval time series, when interval instrumentation ran.
	Warmup []ManifestWarmup `json:"warmup,omitempty"`
	// Profiles references the pprof files a -profile run captured, so the
	// manifest is the index into the capture directory's bounded retention.
	Profiles []ManifestProfile `json:"profiles,omitempty"`
	// PhaseAllocs breaks the run's allocation totals down per phase
	// (runtime/metrics deltas around the same marks Phases times).
	PhaseAllocs []perfobs.PhaseAlloc `json:"phase_allocs,omitempty"`
}

// ManifestProfile references one captured pprof profile file.
type ManifestProfile struct {
	// Kind is "cpu" or "heap".
	Kind  string `json:"kind"`
	Path  string `json:"path"`
	Bytes int64  `json:"bytes"`
}

// ManifestWarmup is one trace's warm-up stabilization estimate: the first
// interval window from which the CPI series stays within the tolerance of
// its remaining mean, and the reference count where that window starts. A
// series that never stabilizes is simply absent.
type ManifestWarmup struct {
	Trace    string `json:"trace"`
	Window   int    `json:"window"`
	StartRef int64  `json:"start_ref"`
}

// ManifestCheckpoint identifies the checkpoint log a run used.
type ManifestCheckpoint struct {
	Path string `json:"path"`
	// Entries is how many completed cells the log held when the run
	// finished.
	Entries int `json:"entries"`
}

// ManifestHost records where the run executed: the environment fingerprint
// that makes two ledgered runs comparable (a cycle regression measured on a
// different GOMAXPROCS or source revision is a different experiment).
// Hostname is omitted when the OBS_NO_HOSTNAME environment variable is set,
// for runs whose manifests leave the machine.
type ManifestHost struct {
	Hostname   string `json:"hostname,omitempty"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// GitDescribe identifies the source revision the binary was built from
	// (VCS stamp: short revision, "-dirty" when the tree had local edits),
	// empty when the build carried no VCS information (e.g. go test).
	GitDescribe string `json:"git_describe,omitempty"`
}

// ManifestCells tallies cell outcomes. Done counts every cell the runner
// completed; of those, MemoHits were served from the Suite's in-process
// cell memo and Cold were simulated.
type ManifestCells struct {
	Planned  int64 `json:"planned"`
	Done     int64 `json:"done"`
	Cold     int64 `json:"cold,omitempty"`
	MemoHits int64 `json:"memo_hits,omitempty"`
	Replayed int64 `json:"replayed"`
	Failed   int64 `json:"failed"`
	Panicked int64 `json:"panicked"`
	Retried  int64 `json:"retried"`
}

// ManifestThroughput is the aggregate simulator throughput of the run.
type ManifestThroughput struct {
	RefsSimulated int64   `json:"refs_simulated"`
	RefsPerSec    float64 `json:"refs_per_sec"`
	CellsPerSec   float64 `json:"cells_per_sec"`
}

// NewManifest starts a manifest for the current process: run id, host and
// invocation filled in, start time set to now.
func NewManifest() *Manifest {
	return &Manifest{
		SchemaVersion: manifestSchemaVersion,
		RunID:         RunID(),
		Invocation:    os.Args,
		StartTime:     time.Now().UTC(),
		Host:          Host(),
	}
}

// Host collects the current process's environment fingerprint. Everything
// here is constant for the process lifetime, so a run resumed from a
// checkpoint in the same environment fingerprints identically.
func Host() ManifestHost {
	host, _ := os.Hostname()
	if os.Getenv("OBS_NO_HOSTNAME") != "" {
		host = ""
	}
	return ManifestHost{
		Hostname:    host,
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GitDescribe: GitDescribe(),
	}
}

// GitDescribe renders the VCS stamp the Go toolchain embedded in the
// running binary as a short `git describe`-style string: the first twelve
// hex digits of the revision, suffixed "-dirty" when the working tree had
// uncommitted changes. Empty when the binary carries no VCS information
// (test binaries, builds outside a repository).
func GitDescribe() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev string
	var dirty bool
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return ""
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// ConfigHash derives the manifest's configuration identity from its parts
// (scale, figure selection, trace fingerprints, …) the same way checkpoint
// cell keys are derived, so it is stable across runs and resumes.
func ConfigHash(parts ...any) string { return runner.Key(parts...) }

// FillFromRegistry copies the registry's sweep metrics into the manifest:
// cell tallies, latency percentiles and throughput over the given wall
// time.
func (m *Manifest) FillFromRegistry(reg *Registry, wall time.Duration) {
	m.WallMs = wall.Milliseconds()
	m.Cells = ManifestCells{
		Planned:  reg.Counter(MCellsPlanned).Value(),
		Done:     reg.Counter(MCellsDone).Value(),
		MemoHits: reg.Counter(MCellsMemoHits).Value(),
		Replayed: reg.Counter(MCellsReplayed).Value(),
		Failed:   reg.Counter(MCellsFailed).Value(),
		Panicked: reg.Counter(MCellsPanicked).Value(),
		Retried:  reg.Counter(MCellsRetried).Value(),
	}
	m.Cells.Cold = m.Cells.Done - m.Cells.MemoHits
	m.CellLatency = reg.Timing(MCellLatency).Snapshot()
	m.ProfileCacheBytes = reg.Gauge(MProfileCacheBytes).Value()
	refs := reg.Counter(MSimRefs).Value()
	m.Throughput = ManifestThroughput{
		RefsSimulated: refs,
		RefsPerSec:    rate(refs, wall.Seconds()),
		CellsPerSec:   rate(m.Cells.Cold+m.Cells.Failed, wall.Seconds()),
	}
}

// Write atomically writes the manifest as indented JSON: a temp file in the
// target directory, fsynced, then renamed over path, so a manifest is never
// half-written even on SIGINT.
func (m *Manifest) Write(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding manifest: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return fmt.Errorf("obs: writing manifest %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("obs: writing manifest %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("obs: syncing manifest %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("obs: closing manifest %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("obs: renaming manifest %s: %w", path, err)
	}
	return nil
}

// ReadManifest loads a manifest written by Write.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading manifest %s: %w", path, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: decoding manifest %s: %w", path, err)
	}
	return &m, nil
}
