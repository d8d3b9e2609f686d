// Package ledger is the cross-run persistence layer of the observability
// stack: an append-only NDJSON file of compact run records, one per
// ledgered cachesim/paperfigs invocation. Where a run manifest (internal/
// obs) describes one run exhaustively, a ledger record keeps only what is
// comparable *between* runs — configuration identity, grid shape, cycle
// and throughput totals, cell-latency percentiles, attribution rollups and
// the environment fingerprint — so trends, diffs and regression gates
// (cmd/simreport) can operate over weeks of history without re-running
// anything. The paper's methodology is comparative throughout (speed–size
// lines of equal performance, break-even associativity, optimal block
// size are all relations between configurations); the ledger is the same
// idea applied to the simulator itself over time.
package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/explain"
	"repro/internal/obs"
)

// SchemaVersion is stamped into every record this build appends. Readers
// skip records stamped by a newer schema instead of misinterpreting them,
// so ledgers survive upgrades in both directions: old tools ignore new
// records, new tools must keep decoding every historical version.
const SchemaVersion = 1

// FileName is the ledger file inside a ledger directory.
const FileName = "ledger.ndjson"

// Env is the environment fingerprint of one run. Two records are only
// honestly comparable when their fingerprints match: a slower run on a
// different revision is a regression, on a different GOMAXPROCS it may
// just be a smaller machine.
type Env struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GitDescribe string `json:"git_describe,omitempty"`
	Hostname    string `json:"hostname,omitempty"`
}

// String renders the fingerprint as one line.
func (e Env) String() string {
	s := fmt.Sprintf("%s %s/%s gomaxprocs=%d", e.GoVersion, e.GOOS, e.GOARCH, e.GOMAXPROCS)
	if e.GitDescribe != "" {
		s += " git=" + e.GitDescribe
	}
	if e.Hostname != "" {
		s += " host=" + e.Hostname
	}
	return s
}

// Cells is the grid shape of one run: how many sweep cells it planned and
// how they ended.
type Cells struct {
	Planned  int64 `json:"planned"`
	Done     int64 `json:"done"`
	Replayed int64 `json:"replayed"`
	Failed   int64 `json:"failed"`
}

// Record is one ledger line. Zero-valued optional metrics marshal away, so
// records stay compact and a metric's absence is distinguishable from a
// measured zero.
type Record struct {
	Schema     int       `json:"schema"`
	RunID      string    `json:"run_id"`
	Time       time.Time `json:"time"`
	Tool       string    `json:"tool"` // "cachesim", "paperfigs" or "cachesimd"
	ConfigHash string    `json:"config_hash"`
	Outcome    string    `json:"outcome"`
	WallMs     int64     `json:"wall_ms"`

	Cells        Cells   `json:"cells"`
	LatencyP50Us int64   `json:"latency_p50_us,omitempty"`
	LatencyP95Us int64   `json:"latency_p95_us,omitempty"`
	Refs         int64   `json:"refs,omitempty"`
	RefsPerSec   float64 `json:"refs_per_sec,omitempty"`
	// TotalCycles is the warm-window simulated cycle total across the
	// run's cells; CPI is TotalCycles/Refs. Both are bit-deterministic for
	// a fixed configuration, which is what makes tight regression gates
	// possible at all.
	TotalCycles int64   `json:"total_cycles,omitempty"`
	CPI         float64 `json:"cpi,omitempty"`
	// Attribution is the warm-window cycle-attribution rollup (component →
	// cycles), present when the run armed -attrib.
	Attribution map[string]int64 `json:"attribution,omitempty"`
	// Warmup maps trace name → first warm-stable reference, from the
	// interval instrument's stabilization estimator.
	Warmup map[string]int64 `json:"warmup,omitempty"`
	// Explain is the run's merged explainability report (3C miss classes,
	// reuse-distance histograms, set pressure), present when the run armed
	// -explain. `simreport diff` turns its 3C totals into composition-shift
	// deltas; like attribution, they explain rather than gate.
	Explain *explain.Report `json:"explain,omitempty"`

	Env Env `json:"env"`
}

// FromManifest projects a run manifest down to its ledger record; it is the
// only way a record is made, so a field added to the run record reaches
// every tool's ledger line here. Cycle totals come from the attribution
// rollup when the manifest has one (conservation makes their sum the
// simulated cycle count); tools with a direct cycle source override them
// with SetCycles.
func FromManifest(m *obs.Manifest, tool string) Record {
	rec := Record{
		Schema:     SchemaVersion,
		RunID:      m.RunID,
		Time:       m.StartTime,
		Tool:       tool,
		ConfigHash: m.ConfigHash,
		Outcome:    m.Outcome,
		WallMs:     m.WallMs,
		Cells: Cells{
			Planned:  m.Cells.Planned,
			Done:     m.Cells.Done,
			Replayed: m.Cells.Replayed,
			Failed:   m.Cells.Failed,
		},
		LatencyP50Us: m.CellLatency.P50Us,
		LatencyP95Us: m.CellLatency.P95Us,
		Refs:         m.Throughput.RefsSimulated,
		RefsPerSec:   m.Throughput.RefsPerSec,
		Env: Env{
			GoVersion:   m.Host.GoVersion,
			GOOS:        m.Host.GOOS,
			GOARCH:      m.Host.GOARCH,
			GOMAXPROCS:  m.Host.GOMAXPROCS,
			GitDescribe: m.Host.GitDescribe,
			Hostname:    m.Host.Hostname,
		},
	}
	if len(m.Attribution) > 0 {
		rec.Attribution = make(map[string]int64, len(m.Attribution))
		for name, cycles := range m.Attribution {
			rec.Attribution[name] = cycles
			rec.TotalCycles += cycles
		}
	}
	if rec.TotalCycles > 0 && rec.Refs > 0 {
		rec.CPI = float64(rec.TotalCycles) / float64(rec.Refs)
	}
	rec.Explain = m.Explain
	if len(m.Warmup) > 0 {
		rec.Warmup = make(map[string]int64, len(m.Warmup))
		for _, w := range m.Warmup {
			rec.Warmup[w.Trace] = w.StartRef
		}
	}
	return rec
}

// SetCycles overrides the record's totals with the simulator's own
// warm-window counters, which cachesim and the service sum over their
// cells (so they are ledgered even without -attrib): Refs, TotalCycles,
// CPI, and RefsPerSec over the given simulation wall time.
func (r *Record) SetCycles(refs, cycles int64, wall time.Duration) {
	r.Refs, r.TotalCycles = refs, cycles
	if refs > 0 {
		r.CPI = float64(cycles) / float64(refs)
		if wall > 0 {
			r.RefsPerSec = float64(refs) / wall.Seconds()
		}
	}
}

// Path resolves a -ledger argument: a path that already names an .ndjson
// file is used as is, anything else is treated as the ledger directory.
func Path(dirOrFile string) string {
	if strings.HasSuffix(dirOrFile, ".ndjson") {
		return dirOrFile
	}
	return filepath.Join(dirOrFile, FileName)
}

// Append appends one record to the ledger under dir (created if missing)
// and returns the ledger file path. The record is marshaled to a single
// NDJSON line and written with one write call on an O_APPEND descriptor,
// so concurrent appenders interleave at record granularity, never inside a
// record; the line is fsynced before close. The record's Schema is stamped
// if unset.
func Append(dir string, rec Record) (string, error) {
	if rec.Schema == 0 {
		rec.Schema = SchemaVersion
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return "", fmt.Errorf("ledger: encoding record %s: %w", rec.RunID, err)
	}
	// Frame the line with a per-record CRC32C so a later scan can tell a
	// bit-rotted record from an intact one. The frame is still one line and
	// still a single write, so concurrent-append atomicity is unchanged.
	line := durable.Frame(payload)
	path := Path(dir)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return "", fmt.Errorf("ledger: appending to %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("ledger: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("ledger: closing %s: %w", path, err)
	}
	return path, nil
}

// ReadStats reports everything Read saw besides the usable records.
type ReadStats struct {
	// SkippedNewer counts records stamped by a schema newer than this
	// build, skipped rather than misread.
	SkippedNewer int
	// Corrupt counts records the scan rejected — failed checksum, torn or
	// over-long line, unparsable JSON, missing schema stamp. History loss,
	// not an error: the surviving records are still a valid trend.
	Corrupt int
	// Legacy counts pre-checksum records read compatibly.
	Legacy int
}

// Read loads every intact record from the ledger file, in append
// (chronological) order. Checksummed records are verified; pre-checksum
// (legacy) records are read compatibly and counted. Corruption — a failed
// CRC, a torn or over-long line, unparsable JSON — is counted in
// stats.Corrupt and skipped, never fatal: a damaged disk costs the
// damaged records, not the whole history. Read never rewrites the file
// (the ledger supports concurrent appenders; see Repair for the
// single-owner repair path), so corrupt lines stay in place until an
// owner repairs them.
func Read(path string) (recs []Record, stats ReadStats, err error) {
	if _, serr := os.Stat(path); serr != nil {
		return nil, stats, fmt.Errorf("ledger: %w", serr)
	}
	raws, scan, err := durable.ScanFile(path, durable.Options{})
	if err != nil {
		return nil, stats, fmt.Errorf("ledger: reading %s: %w", path, err)
	}
	stats.Corrupt = scan.Quarantined
	stats.Legacy = scan.Legacy
	for _, r := range raws {
		var rec Record
		if uerr := json.Unmarshal(r.Payload, &rec); uerr != nil {
			stats.Corrupt++
			continue
		}
		if rec.Schema > SchemaVersion {
			stats.SkippedNewer++
			continue
		}
		if rec.Schema < 1 {
			stats.Corrupt++
			continue
		}
		recs = append(recs, rec)
	}
	return recs, stats, nil
}

// Repair runs the scan-quarantine-repair pass over the ledger under
// dirOrFile: corrupt records move to the `*.quarantine` sidecar, legacy
// records are upgraded to checksummed frames when a rewrite happens, and
// the file is atomically rewritten clean. Only safe for a single owner —
// the rewrite races concurrent O_APPEND writers — so long-lived owners
// (the sweep service repairs its own DataDir ledger on open) call it at
// startup, while multi-writer readers (simreport) only scan and warn. A
// missing ledger is not an error.
func Repair(dirOrFile string) (durable.Stats, error) {
	path := Path(dirOrFile)
	_, stats, err := durable.ScanFile(path, durable.Options{
		Repair: true,
		// Accept any JSON object with a schema stamp ≥ 1, including
		// versions newer than this build: repair must never quarantine a
		// record only a newer tool understands.
		Validate: func(p []byte) error {
			var rec struct {
				Schema int `json:"schema"`
			}
			if err := json.Unmarshal(p, &rec); err != nil {
				return err
			}
			if rec.Schema < 1 {
				return fmt.Errorf("record without schema version")
			}
			return nil
		},
	})
	if err != nil {
		return stats, fmt.Errorf("ledger: repairing %s: %w", path, err)
	}
	return stats, nil
}

// ByConfig filters records down to one configuration's history, preserving
// order.
func ByConfig(recs []Record, configHash string) []Record {
	var out []Record
	for _, r := range recs {
		if r.ConfigHash == configHash {
			out = append(out, r)
		}
	}
	return out
}

// FindRun resolves a run selector against the ledger: "latest" (the last
// record), "prev" (the one before it), an exact run id, or a unique run-id
// prefix.
func FindRun(recs []Record, sel string) (Record, error) {
	if len(recs) == 0 {
		return Record{}, fmt.Errorf("ledger is empty")
	}
	switch sel {
	case "", "latest":
		return recs[len(recs)-1], nil
	case "prev":
		if len(recs) < 2 {
			return Record{}, fmt.Errorf("ledger has no previous run")
		}
		return recs[len(recs)-2], nil
	}
	var matches []Record
	for _, r := range recs {
		if r.RunID == sel {
			return r, nil
		}
		if strings.HasPrefix(r.RunID, sel) {
			matches = append(matches, r)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return Record{}, fmt.Errorf("no run matches %q", sel)
	default:
		ids := make([]string, len(matches))
		for i, m := range matches {
			ids[i] = m.RunID
		}
		sort.Strings(ids)
		return Record{}, fmt.Errorf("%q is ambiguous: %s", sel, strings.Join(ids, ", "))
	}
}
