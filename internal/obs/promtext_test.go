package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestPromWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Family("rp_requests_total", "Requests by endpoint.", "counter")
	p.Sample("rp_requests_total", []Label{{"endpoint", "detect"}}, 42)
	p.Sample("rp_requests_total", []Label{{"endpoint", `we"ird\pa` + "\nth"}}, 1)
	p.Family("rp_latency_seconds", "Latency.", "histogram")
	p.Histogram("rp_latency_seconds", []Label{{"endpoint", "detect"}},
		[]float64{0.001, 0.01, 0.1}, []uint64{5, 3, 1, 2}, 0.345)
	p.Family("rp_temp", "Gauge with special values.", "gauge")
	p.Sample("rp_temp", nil, math.Inf(1))
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
	data := buf.Bytes()
	if err := CheckExposition(data); err != nil {
		t.Fatalf("writer output fails conformance: %v\n%s", err, data)
	}
	fams, err := ParseExposition(data)
	if err != nil {
		t.Fatal(err)
	}
	rt := FindFamily(fams, "rp_requests_total")
	if rt == nil || rt.Type != "counter" || len(rt.Samples) != 2 {
		t.Fatalf("rp_requests_total: %+v", rt)
	}
	if rt.Samples[1].Label("endpoint") != `we"ird\pa`+"\nth" {
		t.Fatalf("label escaping round-trip broken: %q", rt.Samples[1].Label("endpoint"))
	}
	h := FindFamily(fams, "rp_latency_seconds")
	if h == nil || h.Type != "histogram" {
		t.Fatal("histogram family missing")
	}
	// 3 finite buckets + +Inf + _sum + _count = 6 samples.
	if len(h.Samples) != 6 {
		t.Fatalf("histogram samples = %d, want 6", len(h.Samples))
	}
	last := h.Samples[3]
	if last.Label("le") != "+Inf" || last.Value != 11 {
		t.Fatalf("+Inf bucket wrong: %+v", last)
	}
	g := FindFamily(fams, "rp_temp")
	if g == nil || !math.IsInf(g.Samples[0].Value, 1) {
		t.Fatalf("rp_temp +Inf lost: %+v", g)
	}
}

func TestParseExpositionValid(t *testing.T) {
	src := strings.Join([]string{
		`# HELP rp_x Stuff.`,
		`# TYPE rp_x counter`,
		`rp_x{a="1",b="two"} 3`,
		`rp_x 4 1712000000000`,
		`# TYPE rp_g gauge`,
		`rp_g NaN`,
		``,
	}, "\n")
	fams, err := ParseExposition([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 2 {
		t.Fatalf("families = %d, want 2", len(fams))
	}
	if fams[0].Help != "Stuff." {
		t.Fatalf("help = %q", fams[0].Help)
	}
	if !math.IsNaN(fams[1].Samples[0].Value) {
		t.Fatal("NaN not parsed")
	}
}

func TestConformanceRejections(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"bad metric name", "1bad_name 3\n"},
		{"bad label name", `rp_x{1bad="v"} 3` + "\n"},
		{"reserved label name", `rp_x{__internal="v"} 3` + "\n"},
		{"unquoted label value", `rp_x{a=v} 3` + "\n"},
		{"unterminated label value", `rp_x{a="v} 3` + "\n"},
		{"bad escape", `rp_x{a="\t"} 3` + "\n"},
		{"duplicate label", `rp_x{a="1",a="2"} 3` + "\n"},
		{"missing value", "rp_x{}\n"},
		{"bad value", "rp_x potato\n"},
		{"bad TYPE", "# TYPE rp_x matrix\nrp_x 1\n"},
		{"duplicate TYPE", "# TYPE rp_x counter\nrp_x 1\n# TYPE rp_x gauge\nrp_x 2\n"},
		{"non-contiguous family", "# TYPE rp_x counter\nrp_x 1\n# TYPE rp_y gauge\nrp_y 2\nrp_x 3\n"},
		{"negative counter", "# TYPE rp_x counter\nrp_x -1\n"},
		{"NaN counter", "# TYPE rp_x counter\nrp_x NaN\n"},
		{"histogram without +Inf", "# TYPE rp_h histogram\n" +
			`rp_h_bucket{le="1"} 2` + "\nrp_h_sum 3\nrp_h_count 2\n"},
		{"histogram count mismatch", "# TYPE rp_h histogram\n" +
			`rp_h_bucket{le="1"} 2` + "\n" + `rp_h_bucket{le="+Inf"} 5` + "\nrp_h_sum 3\nrp_h_count 4\n"},
		{"histogram non-monotonic", "# TYPE rp_h histogram\n" +
			`rp_h_bucket{le="1"} 5` + "\n" + `rp_h_bucket{le="2"} 3` + "\n" +
			`rp_h_bucket{le="+Inf"} 5` + "\nrp_h_sum 3\nrp_h_count 5\n"},
		{"histogram missing sum", "# TYPE rp_h histogram\n" +
			`rp_h_bucket{le="+Inf"} 5` + "\nrp_h_count 5\n"},
		{"histogram bucket without le", "# TYPE rp_h histogram\n" +
			"rp_h_bucket 5\nrp_h_sum 1\nrp_h_count 5\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := CheckExposition([]byte(tc.src)); err == nil {
				t.Fatalf("accepted invalid exposition:\n%s", tc.src)
			}
		})
	}
}

func TestHistogramLabelGrouping(t *testing.T) {
	// Two label sets in one histogram family must be validated
	// independently.
	src := "# TYPE rp_h histogram\n" +
		`rp_h_bucket{endpoint="a",le="1"} 2` + "\n" +
		`rp_h_bucket{endpoint="a",le="+Inf"} 3` + "\n" +
		`rp_h_sum{endpoint="a"} 1.5` + "\n" +
		`rp_h_count{endpoint="a"} 3` + "\n" +
		`rp_h_bucket{endpoint="b",le="1"} 0` + "\n" +
		`rp_h_bucket{endpoint="b",le="+Inf"} 1` + "\n" +
		`rp_h_sum{endpoint="b"} 9` + "\n" +
		`rp_h_count{endpoint="b"} 1` + "\n"
	if err := CheckExposition([]byte(src)); err != nil {
		t.Fatalf("valid multi-series histogram rejected: %v", err)
	}
	bad := strings.Replace(src, `rp_h_count{endpoint="b"} 1`, `rp_h_count{endpoint="b"} 2`, 1)
	if err := CheckExposition([]byte(bad)); err == nil {
		t.Fatal("per-series count mismatch not caught")
	}
}

func TestParseSampleTimestamp(t *testing.T) {
	if _, err := ParseExposition([]byte("rp_x 1 notatime\n")); err == nil {
		t.Fatal("bad timestamp accepted")
	}
}

// TestPromSampleJSONNonFinite: JSON has no literal for the non-finite
// values, so a parsed sample marshals them as the exposition spells
// them and finite values as plain numbers.
func TestPromSampleJSONNonFinite(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want string
	}{
		{math.Inf(1), `"+Inf"`},
		{math.Inf(-1), `"-Inf"`},
		{math.NaN(), `"NaN"`},
		{0.25, `0.25`},
	} {
		raw, err := json.Marshal(PromSample{Name: "rp_x", Labels: map[string]string{"q": "0.5"}, Value: c.v})
		if err != nil {
			t.Fatalf("marshal %v: %v", c.v, err)
		}
		want := `{"name":"rp_x","labels":{"q":"0.5"},"value":` + c.want + `}`
		if string(raw) != want {
			t.Errorf("marshal %v = %s, want %s", c.v, raw, want)
		}
	}
}
