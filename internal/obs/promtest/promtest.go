// Package promtest is the shared test-side parser for Prometheus text
// exposition format (0.0.4), kept beside the format's only writer
// (obs.Counters). The job daemon and the federation gateway both export
// /metrics through that writer, and both services' scrape tests must
// enforce the same strict reading of the format: every series line parses, every family has exactly one
// HELP and one TYPE line (in that order, before any of its series),
// label pairs are well-formed, values are floats, and no series repeats.
//
// The package is imported only by _test files, but lives as a normal
// package (with testing.TB parameters) so the jobd and fleet suites can
// share one implementation instead of drifting copies.
package promtest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	seriesRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (.+)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// Parse strictly validates a text-exposition body and returns series →
// value, keyed as `name{label="v",...}` (empty braces for unlabeled
// series). Any format violation fails the test.
func Parse(t testing.TB, body string) map[string]float64 {
	t.Helper()
	series := map[string]float64{}
	help := map[string]bool{}
	typ := map[string]string{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if help[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			help[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, kind := parts[0], parts[1]
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, kind)
			}
			if _, dup := typ[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			if !help[name] {
				t.Fatalf("line %d: TYPE for %s precedes its HELP", ln+1, name)
			}
			typ[name] = kind
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unknown comment form: %q", ln+1, line)
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			m := seriesRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: unparsable series line: %q", ln+1, line)
			}
			name, labels, value := m[1], m[3], m[4]
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, value, err)
			}
			if labels != "" {
				for _, pair := range strings.Split(labels, ",") {
					if !labelRe.MatchString(pair) {
						t.Fatalf("line %d: malformed label pair %q", ln+1, pair)
					}
				}
			}
			// A histogram family's series carry the _bucket/_sum/_count
			// suffixes; HELP/TYPE are registered under the base name.
			family := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suf)
				if base != name && typ[base] == "histogram" {
					family = base
					break
				}
			}
			if !help[family] || typ[family] == "" {
				t.Fatalf("line %d: series %s has no HELP/TYPE for family %s", ln+1, name, family)
			}
			key := name + "{" + labels + "}"
			if _, dup := series[key]; dup {
				t.Fatalf("line %d: duplicate series %s", ln+1, key)
			}
			series[key] = v
		}
	}
	return series
}

// FindSeries returns the value of the series whose name matches and whose
// label block contains all wanted substrings.
func FindSeries(t testing.TB, series map[string]float64, name string, wantLabels ...string) (float64, bool) {
	t.Helper()
	for key, v := range series {
		sname, labels, _ := strings.Cut(key, "{")
		if sname != name {
			continue
		}
		ok := true
		for _, w := range wantLabels {
			if !strings.Contains(labels, w) {
				ok = false
				break
			}
		}
		if ok {
			return v, true
		}
	}
	return 0, false
}
