package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
)

func okCell(key string) runner.Cell[int] {
	return runner.Cell[int]{Key: key, Run: func(ctx context.Context) (int, error) { return 42, nil }}
}

func TestDecideDeterministic(t *testing.T) {
	p := &Plan{Seed: 7, PanicRate: 0.2, SlowRate: 0.2, TransientRate: 0.2}
	q := &Plan{Seed: 7, PanicRate: 0.2, SlowRate: 0.2, TransientRate: 0.2}
	counts := map[Kind]int{}
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("cell-%d", i)
		k := p.Decide(key)
		if k2 := q.Decide(key); k2 != k {
			t.Fatalf("plans with equal seeds disagree on %s: %v vs %v", key, k, k2)
		}
		counts[k]++
	}
	// With 20% per kind over 400 keys, each bucket must be populated and
	// None must keep the plurality. Exact counts are pinned by the seed.
	for _, k := range []Kind{None, Panic, Slow, Transient} {
		if counts[k] == 0 {
			t.Errorf("kind %v never selected across 400 keys", k)
		}
	}
	if counts[None] < counts[Panic] {
		t.Errorf("rate partition off: None=%d < Panic=%d", counts[None], counts[Panic])
	}
	diff := &Plan{Seed: 8, PanicRate: 0.2, SlowRate: 0.2, TransientRate: 0.2}
	same := 0
	for i := 0; i < 400; i++ {
		key := fmt.Sprintf("cell-%d", i)
		if diff.Decide(key) == p.Decide(key) {
			same++
		}
	}
	if same == 400 {
		t.Error("changing the seed changed no decision — seed is not mixed into the hash")
	}
}

func TestValidate(t *testing.T) {
	bad := []*Plan{
		{PanicRate: -0.1},
		{SlowRate: 1.5},
		{PanicRate: 0.6, SlowRate: 0.6},
		{SlowFor: -time.Second},
		{TransientFails: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: invalid plan accepted", i)
		}
	}
	if err := (&Plan{PanicRate: 0.5, SlowRate: 0.25, TransientRate: 0.25}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// findKey searches for a cell key the plan assigns the wanted kind, so the
// wrapper tests do not depend on which specific hash values land where.
func findKey(t *testing.T, p *Plan, want Kind) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("probe-%d", i)
		if p.Decide(key) == want {
			return key
		}
	}
	t.Fatalf("no key decided as %v in 10000 probes", want)
	return ""
}

func TestWrapPanicIsolatedByRunner(t *testing.T) {
	p := &Plan{Seed: 3, PanicRate: 0.3}
	key := findKey(t, p, Panic)
	cells := Wrap(p, []runner.Cell[int]{okCell(key), okCell(findKey(t, p, None))})
	rs := runner.Run(context.Background(), cells, runner.Options{Workers: 2, Retries: 1})
	if rs[0].Err == nil || !rs[0].Err.Panicked {
		t.Fatalf("faulted cell did not fail via panic: %+v", rs[0].Err)
	}
	if rs[0].Attempts != 2 {
		t.Errorf("panicking cell made %d attempts, want 2 (retry budget spent)", rs[0].Attempts)
	}
	if !strings.Contains(rs[0].Err.Err.Error(), "forced panic") {
		t.Errorf("panic message lost: %v", rs[0].Err.Err)
	}
	if !rs[1].Done || rs[1].Value != 42 {
		t.Errorf("healthy cell damaged by neighbouring fault: %+v", rs[1])
	}
}

func TestWrapTransientRecoversViaRetry(t *testing.T) {
	p := &Plan{Seed: 4, TransientRate: 0.3, TransientFails: 1}
	key := findKey(t, p, Transient)
	cells := Wrap(p, []runner.Cell[int]{okCell(key)})
	rs := runner.Run(context.Background(), cells, runner.Options{Retries: 2})
	if !rs[0].Done || rs[0].Value != 42 {
		t.Fatalf("transient fault did not recover through retry: %+v", rs[0].Err)
	}
	if rs[0].Attempts != 2 {
		t.Errorf("recovered after %d attempts, want 2", rs[0].Attempts)
	}

	// Without a retry budget the same fault is terminal and typed.
	p2 := &Plan{Seed: 4, TransientRate: 0.3, TransientFails: 1}
	rs = runner.Run(context.Background(), Wrap(p2, []runner.Cell[int]{okCell(key)}), runner.Options{})
	if rs[0].Err == nil {
		t.Fatal("transient fault with no retries should fail the cell")
	}
	var ie *InjectedError
	if !errors.As(rs[0].Err, &ie) {
		t.Fatalf("terminal error is not a typed *InjectedError: %v", rs[0].Err)
	}
	if ie.Kind != Transient || ie.Attempt != 1 {
		t.Errorf("typed error carries %v/attempt %d, want transient/1", ie.Kind, ie.Attempt)
	}
	if len(ie.LogAttrs()) == 0 {
		t.Error("InjectedError.LogAttrs is empty")
	}
	if runner.Permanent(rs[0].Err) {
		t.Error("injected transient error must stay retryable, not permanent")
	}
}

func TestWrapSlowHonoursDeadline(t *testing.T) {
	p := &Plan{Seed: 5, SlowRate: 0.3, SlowFor: 30 * time.Millisecond}
	key := findKey(t, p, Slow)

	// Generous deadline: the cell is merely late.
	rs := runner.Run(context.Background(), Wrap(p, []runner.Cell[int]{okCell(key)}),
		runner.Options{CellTimeout: time.Second})
	if !rs[0].Done {
		t.Fatalf("slow cell under a generous deadline failed: %+v", rs[0].Err)
	}
	if rs[0].Duration < 30*time.Millisecond {
		t.Errorf("slow cell took %v, want at least the injected 30ms", rs[0].Duration)
	}

	// Tight deadline: the injected delay trips the per-cell timeout.
	rs = runner.Run(context.Background(), Wrap(p, []runner.Cell[int]{okCell(key)}),
		runner.Options{CellTimeout: 5 * time.Millisecond})
	if rs[0].Err == nil {
		t.Fatal("slow cell beat a 5ms deadline with a 30ms injected delay")
	}
	if !errors.Is(rs[0].Err, context.DeadlineExceeded) {
		t.Errorf("want deadline error, got %v", rs[0].Err)
	}
}

func TestWrapSlowUntilHoldsCell(t *testing.T) {
	gate := make(chan struct{})
	p := &Plan{SlowRate: 1, SlowFor: time.Millisecond, SlowUntil: gate}
	cells := Wrap(p, []runner.Cell[int]{okCell("held")})
	done := make(chan runner.Result[int], 1)
	go func() { done <- runner.Run(context.Background(), cells, runner.Options{})[0] }()
	select {
	case r := <-done:
		t.Fatalf("cell finished before its gate opened (SlowFor ignored?): %+v", r)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if r := <-done; !r.Done || r.Value != 42 {
		t.Fatalf("held cell after the gate opened: %+v", r)
	}

	// A held cell still honours cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	p.SlowUntil = make(chan struct{})
	if r := runner.Run(ctx, Wrap(p, []runner.Cell[int]{okCell("held")}), runner.Options{})[0]; r.Err == nil {
		t.Fatal("held cell ignored its deadline")
	}
}

func TestWrapNilPlanIsIdentity(t *testing.T) {
	cells := []runner.Cell[int]{okCell("a")}
	if got := Wrap[int](nil, cells); &got[0] == &cells[0] || got[0].Key != "a" {
		// Same slice back is the contract.
		if len(got) != 1 || got[0].Key != "a" {
			t.Fatal("nil plan altered the cells")
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=9,panic=0.02,slow=0.01,transient=0.1,slowfor=150ms,transientfails=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 9 || p.PanicRate != 0.02 || p.SlowRate != 0.01 ||
		p.TransientRate != 0.1 || p.SlowFor != 150*time.Millisecond || p.TransientFails != 2 {
		t.Errorf("parsed plan wrong: %+v", p)
	}
	for _, bad := range []string{"bogus=1", "panic", "panic=x", "panic=0.9,slow=0.9"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
	if _, err := ParsePlan(""); err != nil {
		t.Errorf("empty spec should parse to the zero plan: %v", err)
	}
}
