package system

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/check"
	"repro/internal/explain"
)

// L1Side is one first-level cache as a core drives it.
type L1Side struct {
	Real *cache.Cache
	// Stack is Real behind the run's armed decorators, innermost first:
	// check.Shadow, then explain.Probe. It is nil when none is armed, so
	// a core can drive Real directly.
	Stack cache.Interface
}

// Route returns the cache the side's accesses go through.
func (s L1Side) Route() cache.Interface {
	if s.Stack != nil {
		return s.Stack
	}
	return s.Real
}

// L1 is one run's first-level cache pair with its instruments attached.
// Both cores build theirs with NewL1: the System for each Run, the engine
// for each behavioural pass (with the checker at most; explain probes
// attach only to the System).
type L1 struct {
	I, D L1Side // the same side when the cache is unified
	// Chk is the run's lockstep checker, nil unless check options were
	// given.
	Chk *check.Checker
}

// NewL1 builds a run's L1 pair (icfg is ignored when unified). A non-nil
// opts attaches a lockstep checker that shadows each real cache, naming
// the run by traceName in divergence reports. An armed exp attaches a
// probe above each side's shadow (one probe for a unified cache), and the
// checker's invariant battery then includes the probes' 3C conservation.
func NewL1(icfg, dcfg cache.Config, unified bool, traceName string, opts *check.Options, exp *explain.Recorder) (L1, error) {
	var l1 L1
	if opts != nil {
		l1.Chk = check.New(opts)
		l1.Chk.SetContext(fmt.Sprintf("trace=%s dcache=%v", traceName, dcfg))
	}
	label := "D"
	if unified {
		label = "U"
	}
	var err error
	if l1.D, err = l1.side(label, dcfg, exp); err != nil {
		return L1{}, err
	}
	if unified {
		l1.I = l1.D
	} else if l1.I, err = l1.side("I", icfg, exp); err != nil {
		return L1{}, err
	}
	l1.Chk.AddConservation("explain-3c", exp)
	return l1, nil
}

// side builds one real cache and stacks the armed decorators on it.
func (l1 *L1) side(label string, cfg cache.Config, exp *explain.Recorder) (L1Side, error) {
	real, err := cache.New(cfg)
	if err != nil {
		return L1Side{}, err
	}
	s := L1Side{Real: real}
	if l1.Chk != nil {
		if s.Stack, err = l1.Chk.Shadow(label, real); err != nil {
			return L1Side{}, err
		}
	}
	if exp != nil {
		if s.Stack, err = exp.Probe(label, s.Route()); err != nil {
			return L1Side{}, err
		}
	}
	return s, nil
}
