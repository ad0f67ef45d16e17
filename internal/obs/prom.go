package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the Prometheus text
// exposition format, version 0.0.4.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// OpenMetricsContentType is the Content-Type of the OpenMetrics text
// exposition format, version 1.0.0.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// NegotiateContentType picks the exposition format for an Accept
// header value: OpenMetrics when the client asks for it (the way a
// modern Prometheus scraper does), the classic 0.0.4 text format
// otherwise. Matching is deliberately loose — any mention of the
// openmetrics-text media type opts in; q-value ordering is more
// machinery than two formats warrant.
func NegotiateContentType(accept string) string {
	if strings.Contains(accept, "application/openmetrics-text") {
		return OpenMetricsContentType
	}
	return PromContentType
}

// Label is one name="value" pair of a sample.
type Label struct {
	Name, Value string
}

// Exemplar is one OpenMetrics exemplar: a small labelset (typically
// just trace_id) tying a histogram bucket back to a concrete request,
// the observed value, and an optional unix-seconds timestamp. The
// zero value means "no exemplar".
type Exemplar struct {
	Labels []Label
	Value  float64
	Ts     float64 // unix seconds; 0 omits the timestamp
}

// IsZero reports whether the exemplar is unset.
func (e Exemplar) IsZero() bool { return len(e.Labels) == 0 }

// PromWriter renders metric families in the Prometheus text
// exposition format: `# HELP`/`# TYPE` headers followed by that
// family's samples. The zero mode is the classic 0.0.4 text format;
// with OpenMetrics set (NewOpenMetricsWriter) the writer emits
// OpenMetrics 1.0 instead — counter TYPE lines drop the _total
// suffix, histogram buckets may carry exemplars, and the exposition
// ends with `# EOF`. Errors are sticky; check Err once at the end.
type PromWriter struct {
	w           io.Writer
	err         error
	openMetrics bool
}

// NewPromWriter wraps w in 0.0.4 mode.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// NewOpenMetricsWriter wraps w in OpenMetrics 1.0 mode. The caller
// must finish the exposition with EOF().
func NewOpenMetricsWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, openMetrics: true}
}

// OpenMetrics reports the writer's mode.
func (p *PromWriter) OpenMetrics() bool { return p.openMetrics }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// escapeHelp escapes a HELP docstring (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes a label value (backslash, quote, newline).
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects:
// shortest float representation, with the special values spelled
// +Inf/-Inf/NaN.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// Family emits the `# HELP` and `# TYPE` header of a new family.
// promType is one of counter, gauge, histogram, summary, untyped. In
// OpenMetrics mode a counter family is declared under its base name
// (the `_total` suffix stays on the sample lines, per the spec).
func (p *PromWriter) Family(name, help, promType string) {
	if p.openMetrics && promType == "counter" {
		name = strings.TrimSuffix(name, "_total")
	}
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, promType)
}

// EOF terminates an OpenMetrics exposition with the mandatory `# EOF`
// line; a no-op in 0.0.4 mode, so serialization code can call it
// unconditionally.
func (p *PromWriter) EOF() {
	if p.openMetrics {
		p.printf("# EOF\n")
	}
}

// appendLabels renders `{a="b",...}` into b (nothing when empty).
func appendLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// Sample emits one sample line. labels may be nil.
func (p *PromWriter) Sample(name string, labels []Label, v float64) {
	p.sample(name, labels, v, Exemplar{})
}

func (p *PromWriter) sample(name string, labels []Label, v float64, ex Exemplar) {
	if p.err != nil {
		return
	}
	var b strings.Builder
	b.WriteString(name)
	appendLabels(&b, labels)
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	// Exemplars exist only in the OpenMetrics format; in 0.0.4 mode
	// they are silently dropped so one metrics pipeline serves both.
	if p.openMetrics && !ex.IsZero() {
		b.WriteString(" # ")
		appendLabels(&b, ex.Labels)
		b.WriteByte(' ')
		b.WriteString(formatValue(ex.Value))
		if ex.Ts != 0 {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(ex.Ts, 'f', 3, 64))
		}
	}
	b.WriteByte('\n')
	p.printf("%s", b.String())
}

// Histogram emits a full conformant histogram family: cumulative
// `_bucket` series with `le` labels ending at +Inf, plus `_sum` and
// `_count`. bounds are the finite upper bounds and counts the
// per-bucket (non-cumulative) counts, len(counts) == len(bounds)+1
// with the final element the overflow bucket.
func (p *PromWriter) Histogram(name string, labels []Label, bounds []float64, counts []uint64, sum float64) {
	p.HistogramExemplars(name, labels, bounds, counts, sum, nil)
}

// HistogramExemplars is Histogram with per-bucket exemplars attached
// in OpenMetrics mode: exemplars[i] rides on the bucket bounded by
// bounds[i] (a final extra element rides on the +Inf bucket); zero
// exemplars and a short or nil slice are fine.
func (p *PromWriter) HistogramExemplars(name string, labels []Label, bounds []float64, counts []uint64, sum float64, exemplars []Exemplar) {
	exemplar := func(i int) Exemplar {
		if i < len(exemplars) {
			return exemplars[i]
		}
		return Exemplar{}
	}
	cum := uint64(0)
	ls := make([]Label, len(labels)+1)
	copy(ls, labels)
	for i, b := range bounds {
		cum += counts[i]
		ls[len(labels)] = Label{"le", formatValue(b)}
		p.sample(name+"_bucket", ls, float64(cum), exemplar(i))
	}
	total := cum
	if len(counts) > len(bounds) {
		total += counts[len(bounds)]
	}
	ls[len(labels)] = Label{"le", "+Inf"}
	p.sample(name+"_bucket", ls, float64(total), exemplar(len(bounds)))
	p.Sample(name+"_sum", labels, sum)
	p.Sample(name+"_count", labels, float64(total))
}

// QuantileGauges emits one gauge sample per QuantileTargets value with
// the conventional q label, e.g. name{...,q="0.99"}; vals are in
// QuantileTargets order, as BucketQuantiles returns them.
func (p *PromWriter) QuantileGauges(name string, labels []Label, vals [3]float64) {
	ls := make([]Label, len(labels)+1)
	copy(ls, labels)
	for i, lbl := range QuantileLabels {
		ls[len(labels)] = Label{"q", lbl}
		p.Sample(name, ls, vals[i])
	}
}
