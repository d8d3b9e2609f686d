package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
)

var update = flag.Bool("update", false, "rewrite testdata/profile_streams.golden")

const streamGolden = "testdata/profile_streams.golden"

// streamDigest hashes everything a profile carries into the timing phase:
// its records byte for byte, its tail gaps, and its total and warm-boundary
// counters.
func streamDigest(t *testing.T, p *Profile) string {
	t.Helper()
	h := sha256.New()
	for _, v := range []any{p.events, [2]uint32{p.tailGap, p.tailGapStoreHits}, p.total, p.warmSnap} {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestProfileStreamGolden pins the exact profile every build route
// produces, against testdata/profile_streams.golden: the cross-validation
// traces against direct-mapped, 2-way and 8-way caches under each
// replacement policy, write policy and allocation policy, plus a
// sub-blocked, a unified and a six-size direct-mapped family built by
// BuildFamily. The cross-validation tests compare replays; this one
// compares the event bytes themselves, so a refactor of the behavioural
// pass that reorders or re-encodes events shows here even when every
// replay agrees. Rewrite with `go test ./internal/engine -run
// ProfileStreamGolden -update` only for an intended change of the stream.
func TestProfileStreamGolden(t *testing.T) {
	var out bytes.Buffer
	add := func(name string, p *Profile) {
		fmt.Fprintf(&out, "%s %s\n", name, streamDigest(t, p))
	}
	for _, tr := range crossTraces(t) {
		for _, assoc := range []int{1, 2, 8} {
			for _, rep := range []cache.Replacement{cache.Random, cache.FIFO, cache.LRU} {
				for _, pol := range []cache.WritePolicy{cache.WriteBack, cache.WriteThrough} {
					for _, alloc := range []bool{false, true} {
						c := l1(1024, 4, assoc, pol, alloc)
						c.Replacement = rep
						p, err := BuildProfile(Org{ICache: c, DCache: c}, tr)
						if err != nil {
							t.Fatal(err)
						}
						add(fmt.Sprintf("%s/%dway/%v/%v/alloc=%v", tr.Name, assoc, rep, pol, alloc), p)
					}
				}
			}
		}
		for _, c := range []struct {
			name string
			org  Org
		}{
			{"subblock", Org{ICache: sub(2048, 16, 4), DCache: subAlloc(2048, 16, 4)}},
			{"unified", Org{DCache: l1(4096, 4, 2, cache.WriteBack, false), Unified: true}},
		} {
			p, err := BuildProfile(c.org, tr)
			if err != nil {
				t.Fatal(err)
			}
			add(tr.Name+"/"+c.name, p)
		}
		kbs := []int{1, 2, 4, 8, 16, 32}
		fam, err := BuildFamily(familyOrgs(kbs, 4, false), tr)
		if err != nil {
			t.Fatal(err)
		}
		for j, p := range fam {
			add(fmt.Sprintf("%s/family/%dKB", tr.Name, kbs[j]), p)
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(streamGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatalf("%v (write it with -update)", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d profiles, golden has %d", len(gotLines), len(wantLines))
	}
	bad := 0
	for k := range gotLines {
		if gotLines[k] != wantLines[k] {
			if bad++; bad <= 10 {
				t.Errorf("stream differs from the golden:\n got %s\nwant %s", gotLines[k], wantLines[k])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d profiles differ in all", bad)
	}
}
