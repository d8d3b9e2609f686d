package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/obs"
)

// residentProfiles sums the bytes and the miss events of every profile in
// the suite's profile cache.
func residentProfiles(s *Suite) (bytes, events int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.profiles {
		if e.p != nil {
			bytes += e.p.Bytes()
			events += e.p.Events()
		}
	}
	return bytes, events
}

// TestResidentProfileBytes: the profile cache's resident bytes, which
// bound a reproduction's memory, come to at most 20 bytes per miss event
// after Figure 4-1 at the golden scale (a 16-byte record per event, plus
// continuation records for dirty victims and second addresses, plus each
// profile's counters). The profile_cache_bytes gauge adds exactly those
// bytes on both of the cache's store paths, single builds (Figure 4-1)
// and family walks (Figure 3-1 on a fresh Suite), and a run's manifest
// carries it.
func TestResidentProfileBytes(t *testing.T) {
	ctx := context.Background()
	for _, fig := range []struct {
		name string
		run  func(*Suite) error
	}{
		{"Figure 4-1", func(s *Suite) error { _, err := s.RunFigure41(ctx, nil, nil); return err }},
		{"Figure 3-1", func(s *Suite) error { _, err := s.RunFigure31(ctx, nil); return err }},
	} {
		s, err := NewSuite(goldenScale)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		s.SetExec(ExecOptions{Workers: 2, Metrics: reg})
		if err := fig.run(s); err != nil {
			t.Fatal(err)
		}
		bytes, events := residentProfiles(s)
		if per := float64(bytes) / float64(events); fig.name == "Figure 4-1" && per > 20 {
			t.Errorf("after %s, resident profiles hold %.2f bytes per event, want at most 20", fig.name, per)
		}
		if g := reg.Gauge(obs.MProfileCacheBytes).Value(); g != int64(bytes) {
			t.Errorf("after %s, %s = %d, want the cache's %d", fig.name, obs.MProfileCacheBytes, g, bytes)
		}
		m := obs.NewManifest()
		m.FillFromRegistry(reg, time.Second)
		if m.ProfileCacheBytes != int64(bytes) {
			t.Errorf("after %s, manifest profile_cache_bytes = %d, want %d", fig.name, m.ProfileCacheBytes, bytes)
		}
	}
}
