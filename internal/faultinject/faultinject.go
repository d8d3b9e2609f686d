// Package faultinject provides deterministic, seeded fault injection for
// sweeps: forced per-cell panics, artificially slow cells and transient
// errors, plus trace corruption and flaky readers (reader.go). Its
// purpose is to drive the runner's retry, deadline, panic-isolation and
// checkpoint-resume paths end-to-end through real sweeps on demand,
// instead of only when something actually breaks.
//
// Fault assignment is a pure function of (plan seed, cell key), so a
// given plan always fails the same cells — a faulted sweep is exactly
// reproducible, and a resumed sweep re-injects identically.
package faultinject

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/runner"
)

// Kind classifies an injected fault.
type Kind uint8

const (
	// None leaves the cell untouched.
	None Kind = iota
	// Panic makes every attempt of the cell panic, exercising panic
	// isolation and the retry budget.
	Panic
	// Slow delays the cell before running it, exercising per-cell
	// deadlines and progress reporting.
	Slow
	// Transient fails the first TransientFails attempts with a retryable
	// error, then lets the cell run, exercising the retry path's success
	// case.
	Transient
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Slow:
		return "slow"
	case Transient:
		return "transient"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Plan is a seeded fault-injection schedule. Rates are probabilities in
// [0,1] partitioning the cell-key space: a cell draws one uniform value
// from hash(seed, key) and the rates bucket it into a fault kind. Safe
// for concurrent use by runner workers.
type Plan struct {
	// Seed makes the schedule deterministic; two sweeps with the same
	// seed and cell keys inject identical faults.
	Seed uint64
	// PanicRate, SlowRate and TransientRate select the fraction of cells
	// receiving each fault kind.
	PanicRate     float64
	SlowRate      float64
	TransientRate float64
	// SlowFor is the injected delay for Slow cells (default 100ms).
	SlowFor time.Duration
	// SlowUntil, when non-nil, holds Slow cells until it is closed instead
	// of delaying them by SlowFor, so a test can keep cells in flight for
	// exactly as long as it needs them there.
	SlowUntil <-chan struct{}
	// TransientFails is how many attempts of a Transient cell fail before
	// one succeeds (default 1).
	TransientFails int

	mu       sync.Mutex
	attempts map[string]int
}

// Validate reports schedule errors.
func (p *Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"panic", p.PanicRate}, {"slow", p.SlowRate}, {"transient", p.TransientRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faultinject: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if p.PanicRate+p.SlowRate+p.TransientRate > 1 {
		return fmt.Errorf("faultinject: rates sum to %v > 1",
			p.PanicRate+p.SlowRate+p.TransientRate)
	}
	if p.SlowFor < 0 {
		return fmt.Errorf("faultinject: negative slow delay %v", p.SlowFor)
	}
	if p.TransientFails < 0 {
		return fmt.Errorf("faultinject: negative transient fail count %d", p.TransientFails)
	}
	return nil
}

func (p *Plan) slowFor() time.Duration {
	if p.SlowFor == 0 {
		return 100 * time.Millisecond
	}
	return p.SlowFor
}

func (p *Plan) transientFails() int {
	if p.TransientFails == 0 {
		return 1
	}
	return p.TransientFails
}

// uniform maps (seed, key) to a deterministic value in [0, 1). The FNV
// digest is passed through a 64-bit finalizer before use: raw FNV-1a high
// bits cluster badly on short, similar keys (sequential cell keys landed
// entirely in the bottom 40% of the range), which would make every rate
// wildly wrong.
func uniform(seed uint64, key string) float64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// Decide returns the fault kind assigned to a cell key. Pure: the same
// plan parameters and key always decide the same fault.
func (p *Plan) Decide(key string) Kind {
	u := uniform(p.Seed, key)
	switch {
	case u < p.PanicRate:
		return Panic
	case u < p.PanicRate+p.SlowRate:
		return Slow
	case u < p.PanicRate+p.SlowRate+p.TransientRate:
		return Transient
	}
	return None
}

// nextAttempt counts this cell's injection attempts (per plan instance).
func (p *Plan) nextAttempt(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.attempts == nil {
		p.attempts = make(map[string]int)
	}
	p.attempts[key]++
	return p.attempts[key]
}

// InjectedError is the typed error a Transient fault produces. It is
// retryable (deliberately not permanent): the runner's retry budget is
// exactly the machinery under test.
type InjectedError struct {
	Key     string
	Kind    Kind
	Attempt int
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: %s fault in cell %s (attempt %d)", e.Kind, e.Key, e.Attempt)
}

// LogAttrs exposes the fault as structured logging attributes; the obs
// layer attaches them to the cell-failure record.
func (e *InjectedError) LogAttrs() []slog.Attr {
	return []slog.Attr{
		slog.String("fault_kind", e.Kind.String()),
		slog.Int("fault_attempt", e.Attempt),
	}
}

// Wrap returns cells with the plan's faults injected around each Run. A
// nil plan returns the cells unchanged. Panicking wrappers panic on every
// attempt (the cell fails after the retry budget); Slow wrappers delay,
// honouring ctx cancellation; Transient wrappers fail the first
// TransientFails attempts and then run the real cell.
func Wrap[T any](p *Plan, cells []runner.Cell[T]) []runner.Cell[T] {
	if p == nil {
		return cells
	}
	out := make([]runner.Cell[T], len(cells))
	for i, c := range cells {
		out[i] = c
		switch kind := p.Decide(c.Key); kind {
		case Panic:
			key := c.Key
			out[i].Run = func(ctx context.Context) (T, error) {
				panic(fmt.Sprintf("faultinject: forced panic in cell %s", key))
			}
		case Slow:
			inner := c.Run
			out[i].Run = func(ctx context.Context) (T, error) {
				var timer <-chan time.Time // nil, never fires, when SlowUntil holds the cell
				if p.SlowUntil == nil {
					timer = time.After(p.slowFor())
				}
				select {
				case <-timer:
				case <-p.SlowUntil:
				case <-ctx.Done():
					var zero T
					return zero, ctx.Err()
				}
				return inner(ctx)
			}
		case Transient:
			key, inner := c.Key, c.Run
			out[i].Run = func(ctx context.Context) (T, error) {
				if attempt := p.nextAttempt(key); attempt <= p.transientFails() {
					var zero T
					return zero, &InjectedError{Key: key, Kind: Transient, Attempt: attempt}
				}
				return inner(ctx)
			}
		}
	}
	return out
}

// ParsePlan parses a CLI fault specification of comma-separated
// key=value pairs, e.g. "seed=1,panic=0.02,slow=0.01,slowfor=150ms,
// transient=0.1,transientfails=2". Unknown keys are errors.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: malformed field %q (want key=value)", field)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "panic":
			p.PanicRate, err = strconv.ParseFloat(v, 64)
		case "slow":
			p.SlowRate, err = strconv.ParseFloat(v, 64)
		case "transient":
			p.TransientRate, err = strconv.ParseFloat(v, 64)
		case "slowfor":
			p.SlowFor, err = time.ParseDuration(v)
		case "transientfails":
			p.TransientFails, err = strconv.Atoi(v)
		default:
			return nil, fmt.Errorf("faultinject: unknown field %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("faultinject: field %q: %w", field, err)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
