// Package pproftest checks captured profiles in tests with the Go
// toolchain's own reader, the one users read them with.
package pproftest

import (
	"bytes"
	"os/exec"
	"testing"
)

// RequireDecodes fails t unless `go tool pprof -raw` reads the profile at
// path: the command must exit 0 and print a Samples: section.
func RequireDecodes(t testing.TB, path string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("go tool pprof -raw %s: %v\n%s", path, err, stderr.Bytes())
	}
	if !bytes.Contains(stdout.Bytes(), []byte("\nSamples:\n")) {
		t.Fatalf("go tool pprof -raw %s printed no Samples: section:\n%s", path, stdout.Bytes())
	}
}
