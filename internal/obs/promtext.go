package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the consumer side of the exposition format: a strict
// parser for the Prometheus text format (version 0.0.4) and its
// OpenMetrics 1.0 sibling (counter families declared on the base
// name, histogram-bucket exemplars, the terminal `# EOF`), plus a
// conformance checker over the parsed families. The serve tests and
// the e2e job scrape /metrics through CheckExposition and
// CheckOpenMetrics, so any malformed line, misdeclared type,
// non-monotonic histogram, inconsistent _sum/_count or overlong
// exemplar fails in CI rather than in a production Prometheus.

// PromExemplar is one parsed OpenMetrics exemplar riding on a sample.
type PromExemplar struct {
	Labels map[string]string
	Value  float64
	Ts     float64
	HasTs  bool
}

// PromSample is one parsed sample line.
type PromSample struct {
	Name     string            `json:"name"`
	Labels   map[string]string `json:"labels,omitempty"`
	Value    float64           `json:"value"`
	Exemplar *PromExemplar     `json:"-"` // OpenMetrics only; nil when absent
}

// Label returns a label value ("" when absent).
func (s PromSample) Label(name string) string { return s.Labels[name] }

// MarshalJSON renders the sample with its value as a JSON number, or,
// for the non-finite values JSON cannot carry, as the exposition's
// spelling: the strings "+Inf", "-Inf" and "NaN".
func (s PromSample) MarshalJSON() ([]byte, error) {
	type plain PromSample
	var v any = s.Value
	if math.IsInf(s.Value, 0) || math.IsNaN(s.Value) {
		v = formatValue(s.Value)
	}
	return json.Marshal(struct {
		plain
		Value any `json:"value"`
	}{plain(s), v})
}

// PromFamily is one parsed metric family: the `# TYPE` declaration
// plus every sample belonging to it.
type PromFamily struct {
	Name    string       `json:"name"`
	Type    string       `json:"type"` // counter | gauge | histogram | summary | untyped
	Help    string       `json:"help"`
	Samples []PromSample `json:"samples"`
}

// validPromTypes is the closed set of TYPE declarations the format
// allows.
var validPromTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// familyOf maps a sample name to the family it belongs to under the
// declared type: histogram samples attach their _bucket/_sum/_count
// suffixes, summaries _sum/_count, and — in the OpenMetrics form,
// where the TYPE line carries the base name — counters their _total
// samples.
func familyOf(sampleName, declaredFamily, declaredType string) bool {
	if sampleName == declaredFamily {
		return true
	}
	switch declaredType {
	case "histogram":
		return sampleName == declaredFamily+"_bucket" ||
			sampleName == declaredFamily+"_sum" ||
			sampleName == declaredFamily+"_count"
	case "summary":
		return sampleName == declaredFamily+"_sum" ||
			sampleName == declaredFamily+"_count"
	case "counter":
		return sampleName == declaredFamily+"_total"
	}
	return false
}

// parseSampleLine parses one non-comment exposition line.
func parseSampleLine(line string) (PromSample, error) {
	s := PromSample{}
	rest := line
	// Metric name runs to '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("no value on line %q", line)
	}
	s.Name = rest[:end]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]

	if rest[0] == '{' {
		labels, remainder, err := parseLabelSet(rest, line)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = remainder
	}

	// An OpenMetrics exemplar follows the value (and optional
	// timestamp) after a '#'. Label values were consumed above, so an
	// unquoted '#' here can only be the exemplar separator.
	if hash := strings.IndexByte(rest, '#'); hash >= 0 {
		ex, err := parseExemplar(rest[hash+1:], line)
		if err != nil {
			return s, err
		}
		s.Exemplar = ex
		rest = rest[:hash]
	}

	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want 'value [timestamp]' after name, got %q", rest)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q in %q", fields[1], line)
		}
	}
	return s, nil
}

// parseLabelSet consumes a `{name="value",...}` labelset (rest must
// start at the '{'), returning the labels and the remainder after the
// closing brace.
func parseLabelSet(rest, line string) (map[string]string, string, error) {
	rest = rest[1:]
	labels := map[string]string{}
	for {
		rest = strings.TrimLeft(rest, " \t")
		if rest == "" {
			return nil, "", fmt.Errorf("unterminated label set in %q", line)
		}
		if rest[0] == '}' {
			return labels, rest[1:], nil
		}
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '=' in %q", line)
		}
		name := strings.TrimSpace(rest[:eq])
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("invalid label name %q in %q", name, line)
		}
		rest = strings.TrimLeft(rest[eq+1:], " \t")
		if rest == "" || rest[0] != '"' {
			return nil, "", fmt.Errorf("unquoted label value for %q in %q", name, line)
		}
		val, remainder, err := parseQuoted(rest)
		if err != nil {
			return nil, "", fmt.Errorf("%w in %q", err, line)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("duplicate label %q in %q", name, line)
		}
		labels[name] = val
		rest = strings.TrimLeft(remainder, " \t")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		} else if !strings.HasPrefix(rest, "}") {
			return nil, "", fmt.Errorf("expected ',' or '}' after label %q in %q", name, line)
		}
	}
}

// parseExemplar parses the exemplar clause after the '#' separator:
// `{labels} value [timestamp]`, the timestamp in unix seconds.
func parseExemplar(s, line string) (*PromExemplar, error) {
	s = strings.TrimLeft(s, " \t")
	if s == "" || s[0] != '{' {
		return nil, fmt.Errorf("exemplar without labelset in %q", line)
	}
	labels, rest, err := parseLabelSet(s, line)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return nil, fmt.Errorf("want 'value [timestamp]' in exemplar, got %q in %q", rest, line)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value %q in %q", fields[0], line)
	}
	ex := &PromExemplar{Labels: labels, Value: v}
	if len(fields) == 2 {
		ts, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || math.IsNaN(ts) || math.IsInf(ts, 0) {
			return nil, fmt.Errorf("bad exemplar timestamp %q in %q", fields[1], line)
		}
		ex.Ts, ex.HasTs = ts, true
	}
	return ex, nil
}

// parseQuoted consumes a double-quoted label value with \\ \" \n
// escapes, returning the decoded value and the remainder after the
// closing quote.
func parseQuoted(s string) (string, string, error) {
	if s == "" || s[0] != '"' {
		return "", "", fmt.Errorf("missing opening quote")
	}
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		case '\n':
			return "", "", fmt.Errorf("newline inside label value")
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// ParseExposition parses a complete text exposition into families,
// enforcing the line grammar and the family structure: a TYPE line
// (at most one per family) must precede that family's samples, all of
// one family's samples are contiguous, and no family recurs. Both the
// 0.0.4 and the OpenMetrics form parse; an `# EOF` terminator is
// accepted (and must then be last).
func ParseExposition(data []byte) ([]PromFamily, error) {
	families, _, err := parseExposition(data)
	return families, err
}

func parseExposition(data []byte) ([]PromFamily, bool, error) {
	var (
		families []PromFamily
		byName   = map[string]*PromFamily{}
		current  *PromFamily
		closed   = map[string]bool{} // families whose sample block has ended
		eof      bool
	)
	family := func(name string) *PromFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		families = append(families, PromFamily{Name: name, Type: "untyped"})
		f := &families[len(families)-1]
		byName[name] = f
		return f
	}
	lines := strings.Split(string(data), "\n")
	for ln, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		lineNo := ln + 1
		if eof {
			return nil, false, fmt.Errorf("line %d: content after # EOF", lineNo)
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 {
				continue // bare comment
			}
			switch fields[1] {
			case "EOF":
				if len(fields) != 2 || line != "# EOF" {
					return nil, false, fmt.Errorf("line %d: malformed EOF line %q", lineNo, line)
				}
				eof = true
				continue
			case "TYPE":
				if len(fields) != 4 {
					return nil, false, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				name, typ := fields[2], strings.TrimSpace(fields[3])
				if !validMetricName(name) {
					return nil, false, fmt.Errorf("line %d: invalid family name %q", lineNo, name)
				}
				if !validPromTypes[typ] {
					return nil, false, fmt.Errorf("line %d: invalid TYPE %q for %q", lineNo, typ, name)
				}
				if f, seen := byName[name]; seen && (len(f.Samples) > 0 || f.Type != "untyped") {
					return nil, false, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				if closed[name] {
					return nil, false, fmt.Errorf("line %d: family %q reopened after other samples", lineNo, name)
				}
				if current != nil && current.Name != name {
					closed[current.Name] = true
				}
				f := family(name)
				f.Type = typ
				current = f
			case "HELP":
				if len(fields) < 3 {
					return nil, false, fmt.Errorf("line %d: malformed HELP line %q", lineNo, line)
				}
				name := fields[2]
				if !validMetricName(name) {
					return nil, false, fmt.Errorf("line %d: invalid family name %q", lineNo, name)
				}
				if f, seen := byName[name]; seen && f.Help != "" {
					return nil, false, fmt.Errorf("line %d: duplicate HELP for %q", lineNo, name)
				}
				f := family(name)
				if len(fields) == 4 {
					f.Help = fields[3]
				}
			default:
				// Plain comment: ignored.
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, false, fmt.Errorf("line %d: %w", lineNo, err)
		}
		// Attach to the family owning this sample name.
		owner := current
		if owner == nil || !familyOf(s.Name, owner.Name, owner.Type) {
			if owner != nil {
				closed[owner.Name] = true
			}
			if !validMetricName(s.Name) {
				return nil, false, fmt.Errorf("line %d: invalid metric name %q", lineNo, s.Name)
			}
			if closed[s.Name] {
				return nil, false, fmt.Errorf("line %d: family %q samples are not contiguous", lineNo, s.Name)
			}
			owner = family(s.Name)
			current = owner
		}
		owner.Samples = append(owner.Samples, s)
	}
	return families, eof, nil
}

// CheckExposition parses data and verifies the semantic invariants a
// Prometheus scraper relies on: counters are finite and non-negative,
// histograms have monotone cumulative buckets ending in le="+Inf",
// and _count equals the +Inf bucket for every label set. Exemplars,
// when present, must ride on histogram buckets or counters only and
// satisfy the OpenMetrics bounds (labelset within 128 characters, the
// value inside its bucket).
func CheckExposition(data []byte) error {
	families, err := ParseExposition(data)
	return checkFamilies(families, err)
}

// CheckOpenMetrics is CheckExposition under the stricter OpenMetrics
// contract: the exposition must terminate with `# EOF`.
func CheckOpenMetrics(data []byte) error {
	families, eof, err := parseExposition(data)
	if err == nil && !eof {
		return fmt.Errorf("OpenMetrics exposition does not end with # EOF")
	}
	return checkFamilies(families, err)
}

func checkFamilies(families []PromFamily, err error) error {
	if err != nil {
		return err
	}
	for i := range families {
		f := &families[i]
		switch f.Type {
		case "counter":
			for _, s := range f.Samples {
				// The 0.0.4 form declares the family on the full _total
				// name, the OpenMetrics form on the base name.
				if s.Name != f.Name && s.Name != f.Name+"_total" {
					return fmt.Errorf("family %s: stray sample %s", f.Name, s.Name)
				}
				if math.IsNaN(s.Value) || s.Value < 0 {
					return fmt.Errorf("family %s: counter value %v", f.Name, s.Value)
				}
				if err := checkExemplar(f.Name, s.Exemplar, math.Inf(1)); err != nil {
					return err
				}
			}
		case "histogram":
			if err := checkHistogram(f); err != nil {
				return err
			}
		default:
			for _, s := range f.Samples {
				if s.Exemplar != nil {
					return fmt.Errorf("family %s: exemplar on %s sample %s (only counters and histogram buckets may carry exemplars)",
						f.Name, f.Type, s.Name)
				}
			}
		}
	}
	return nil
}

// checkExemplar validates one exemplar against the OpenMetrics rules:
// the combined label names and values stay within 128 UTF-8
// characters, names are valid, and the value lies within the bucket
// it annotates (maxValue is +Inf for counters).
func checkExemplar(family string, ex *PromExemplar, maxValue float64) error {
	if ex == nil {
		return nil
	}
	runes := 0
	for k, v := range ex.Labels {
		if !validLabelName(k) {
			return fmt.Errorf("family %s: invalid exemplar label name %q", family, k)
		}
		runes += len([]rune(k)) + len([]rune(v))
	}
	if runes > 128 {
		return fmt.Errorf("family %s: exemplar labelset is %d characters, limit 128", family, runes)
	}
	if math.IsNaN(ex.Value) || ex.Value > maxValue {
		return fmt.Errorf("family %s: exemplar value %v outside its bucket (le=%v)", family, ex.Value, maxValue)
	}
	return nil
}

// FindFamily returns the family with the given name, or nil.
func FindFamily(families []PromFamily, name string) *PromFamily {
	for i := range families {
		if families[i].Name == name {
			return &families[i]
		}
	}
	return nil
}

// labelKey canonicalizes a label set minus the given excluded label,
// for grouping histogram series.
func labelKey(labels map[string]string, exclude string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != exclude {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q;", k, labels[k])
	}
	return b.String()
}

func checkHistogram(f *PromFamily) error {
	type series struct {
		buckets  []PromSample // _bucket samples in exposition order
		sum      *float64
		count    *float64
		infCount float64
		hasInf   bool
	}
	group := map[string]*series{}
	at := func(labels map[string]string) *series {
		key := labelKey(labels, "le")
		g, ok := group[key]
		if !ok {
			g = &series{}
			group[key] = g
		}
		return g
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("family %s: _bucket without le label", f.Name)
			}
			bound, err := parsePromValue(le)
			if err != nil {
				return fmt.Errorf("family %s: unparsable le=%q", f.Name, le)
			}
			if err := checkExemplar(f.Name, s.Exemplar, bound); err != nil {
				return err
			}
			g := at(s.Labels)
			g.buckets = append(g.buckets, s)
			if math.IsInf(bound, 1) {
				g.hasInf, g.infCount = true, s.Value
			}
		case f.Name + "_sum":
			if s.Exemplar != nil {
				return fmt.Errorf("family %s: exemplar on _sum sample", f.Name)
			}
			v := s.Value
			at(s.Labels).sum = &v
		case f.Name + "_count":
			if s.Exemplar != nil {
				return fmt.Errorf("family %s: exemplar on _count sample", f.Name)
			}
			v := s.Value
			at(s.Labels).count = &v
		default:
			return fmt.Errorf("family %s: stray sample %s", f.Name, s.Name)
		}
	}
	for key, g := range group {
		if !g.hasInf {
			return fmt.Errorf("family %s{%s}: no le=\"+Inf\" bucket", f.Name, key)
		}
		if g.sum == nil || g.count == nil {
			return fmt.Errorf("family %s{%s}: missing _sum or _count", f.Name, key)
		}
		//lint:ignore rplint/floateq histogram invariant: _count and the +Inf bucket are parsed from the same integral exposition text, so exact equality is the check
		if *g.count != g.infCount {
			return fmt.Errorf("family %s{%s}: _count %v != +Inf bucket %v",
				f.Name, key, *g.count, g.infCount)
		}
		prevBound := math.Inf(-1)
		prevCum := -1.0
		for _, b := range g.buckets {
			bound, _ := parsePromValue(b.Labels["le"])
			if bound <= prevBound {
				return fmt.Errorf("family %s{%s}: le bounds not increasing at %v", f.Name, key, bound)
			}
			if b.Value < prevCum {
				return fmt.Errorf("family %s{%s}: cumulative count decreases at le=%v (%v < %v)",
					f.Name, key, bound, b.Value, prevCum)
			}
			prevBound, prevCum = bound, b.Value
		}
	}
	return nil
}
