package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIntervalFlags: -intervals-out without a positive -intervals, and a
// negative -intervals, are usage errors reported before any trace is
// generated (nothing on stdout, no file written); a positive -intervals
// writes the requested file.
func TestIntervalFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = success
	}{
		{"out-without-intervals", []string{"-intervals-out", "OUT"}, "-intervals-out needs -intervals"},
		{"out-with-zero-intervals", []string{"-intervals", "0", "-intervals-out", "OUT"}, "-intervals-out needs -intervals"},
		{"negative-intervals", []string{"-intervals", "-5"}, "-intervals must be a positive"},
		{"negative-intervals-with-out", []string{"-intervals", "-5", "-intervals-out", "OUT"}, "-intervals must be a positive"},
		{"intervals-with-out", []string{"-intervals", "500", "-intervals-out", "OUT"}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "iv.csv")
			args := []string{"-workload", "mu3", "-scale", "0.01"}
			for _, a := range c.args {
				args = append(args, strings.ReplaceAll(a, "OUT", out))
			}
			var stdout, stderr bytes.Buffer
			err := run(args, &stdout, &stderr)
			_, statErr := os.Stat(out)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
				}
				if statErr != nil {
					t.Fatalf("interval file not written: %v", statErr)
				}
				return
			}
			if !errors.Is(err, errUsage) {
				t.Fatalf("run = %v, want a usage error", err)
			}
			if !strings.Contains(stderr.String(), c.wantErr) {
				t.Errorf("stderr %q does not name the mistake %q", stderr.String(), c.wantErr)
			}
			if stdout.Len() != 0 {
				t.Errorf("a usage error still simulated; stdout:\n%s", stdout.String())
			}
			if statErr == nil {
				t.Error("a usage error still wrote the interval file")
			}
		})
	}
}
