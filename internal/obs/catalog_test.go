package obs

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// lintCatalog validates a catalog table: snake_case names, a known kind,
// non-empty help, and each name declared exactly once.
func lintCatalog(defs []Def) error {
	seen := make(map[string]bool, len(defs))
	var errs []string
	for _, d := range defs {
		switch {
		case !snakeCase.MatchString(d.Name):
			errs = append(errs, fmt.Sprintf("metric %q is not snake_case", d.Name))
		case seen[d.Name]:
			errs = append(errs, fmt.Sprintf("metric %q declared more than once", d.Name))
		case d.Kind != KindCounter && d.Kind != KindGauge && d.Kind != KindTiming:
			errs = append(errs, fmt.Sprintf("metric %q has unknown kind %q", d.Name, d.Kind))
		case strings.TrimSpace(d.Help) == "":
			errs = append(errs, fmt.Sprintf("metric %q has no help text", d.Name))
		}
		seen[d.Name] = true
	}
	if len(errs) > 0 {
		return fmt.Errorf("obs catalog: %s", strings.Join(errs, "; "))
	}
	return nil
}

// TestLintCatalog: the shipped Catalog passes, and each lint rule actually
// fires on a violating table.
func TestLintCatalog(t *testing.T) {
	if err := lintCatalog(Catalog); err != nil {
		t.Fatalf("shipped Catalog fails lint: %v", err)
	}
	bad := map[string]Def{
		"not snake_case": {"QueueDepth", KindGauge, "x"},
		"unknown kind":   {"queue_depth2", "sparkline", "x"},
		"no help text":   {"queue_depth3", KindGauge, "  "},
		"more than once": Catalog[0],
	}
	for rule, d := range bad {
		err := lintCatalog(append(append([]Def{}, Catalog...), d))
		if err == nil || !strings.Contains(err.Error(), rule) {
			t.Errorf("%s: lint did not catch %+v: %v", rule, d, err)
		}
	}
}

// TestRegisterCreatesCatalog: RegisterCatalog pre-creates every declared
// metric with its declared kind, so a fresh process exposes the whole
// catalog at zero.
func TestRegisterCreatesCatalog(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterCatalog()
	exported := reg.Export()
	if len(exported) != len(Catalog) {
		t.Fatalf("registry has %d metrics after RegisterCatalog, want %d", len(exported), len(Catalog))
	}
	for _, m := range exported {
		d, ok := Lookup(m.Name)
		if !ok {
			t.Errorf("registered metric %q has no catalog entry", m.Name)
			continue
		}
		if d.Kind != m.Kind {
			t.Errorf("metric %q registered as %s, declared %s", m.Name, m.Kind, d.Kind)
		}
	}
	for _, name := range []string{"no_such_metric", "attrib_mem_wait"} {
		if _, ok := Lookup(name); ok {
			t.Errorf("undeclared name %q resolved", name)
		}
	}
}
