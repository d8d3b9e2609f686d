package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// sampleLine matches one exposition sample: a metric name, an optional
// label set, and a float value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$`)

// ParsePromText parses Prometheus text exposition format back into a
// series → value map (series = name plus its label set, verbatim). It is
// the strict half of the round-trip test for WritePrometheus: malformed
// lines, duplicate series, samples without a preceding TYPE, and TYPE
// declarations repeated for one family are all errors. Not a general
// scraper — just strict enough to prove our own output is well-formed.
func ParsePromText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	typed := make(map[string]string)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return nil, fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if fields[1] == "TYPE" {
				name, typ := fields[2], fields[3]
				if typ != "counter" && typ != "gauge" && typ != "summary" && typ != "histogram" && typ != "untyped" {
					return nil, fmt.Errorf("line %d: unknown type %q for %s", lineNo, typ, name)
				}
				if _, dup := typed[name]; dup {
					return nil, fmt.Errorf("line %d: repeated TYPE for %s", lineNo, name)
				}
				typed[name] = typ
			}
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("line %d: malformed sample %q", lineNo, line)
		}
		name, labels, raw := m[1], m[2], m[3]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q for %s: %v", lineNo, raw, name, err)
		}
		if err := checkLabels(labels); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		// A summary family `x` legitimately emits x{quantile=...}, x_sum
		// and x_count under one TYPE declaration.
		base := name
		if typed[base] == "" {
			base = strings.TrimSuffix(strings.TrimSuffix(base, "_sum"), "_count")
		}
		if typed[base] == "" {
			return nil, fmt.Errorf("line %d: sample %s has no TYPE declaration", lineNo, name)
		}
		series := name + labels
		if _, dup := out[series]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, series)
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

var labelPair = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)

// checkLabels validates a {k="v",...} label block (empty string = none).
func checkLabels(block string) error {
	if block == "" {
		return nil
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(block, "{"), "}")
	if inner == "" {
		return nil
	}
	for _, pair := range strings.Split(inner, ",") {
		if !labelPair.MatchString(pair) {
			return fmt.Errorf("malformed label pair %q", pair)
		}
	}
	return nil
}
