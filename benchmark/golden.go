package main

import (
	_ "embed"
	"encoding/json"
)

// goldenScale is the trace scale the pinned digests were taken at, which
// every benchmark run uses; the package tests run at a smaller scale and
// skip the digest comparison.
const goldenScale = 0.25

//go:embed golden.json
var goldenJSON []byte

// golden holds the pinned result digests: one per paper driver, and one
// over the explore-warm evaluations in canonical point order.
var golden = func() (g struct {
	Figures map[string]string `json:"figures"`
	Explore string            `json:"explore"`
}) {
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("golden.json: " + err.Error())
	}
	return g
}()
