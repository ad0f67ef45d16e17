package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestIDRoundTrip(t *testing.T) {
	g := NewIDGen()
	id := g.Next()
	if id.IsZero() {
		t.Fatal("generated ID is zero")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() length = %d, want 32", len(s))
	}
	back, ok := ParseID(s)
	if !ok || back != id {
		t.Fatalf("ParseID(%q) = %v, %v; want original", s, back, ok)
	}
	if got := string(id.AppendHex(nil)); got != s {
		t.Fatalf("AppendHex = %q, want %q", got, s)
	}
}

func TestParseIDRejectsBadInput(t *testing.T) {
	for _, s := range []string{"", "abc", strings.Repeat("g", 32), strings.Repeat("a", 33)} {
		if _, ok := ParseID(s); ok {
			t.Errorf("ParseID(%q) accepted", s)
		}
	}
}

func TestIDGenUnique(t *testing.T) {
	g := NewIDGen()
	const n = 10000
	seen := make(map[ID]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]ID, 0, n/8)
			for i := 0; i < n/8; i++ {
				local = append(local, g.Next())
			}
			mu.Lock()
			for _, id := range local {
				if seen[id] {
					t.Errorf("duplicate ID %s", id)
				}
				seen[id] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
}

func TestIDGenNextAllocFree(t *testing.T) {
	g := NewIDGen()
	var sink ID
	allocs := testing.AllocsPerRun(1000, func() {
		sink = g.Next()
	})
	if allocs != 0 {
		t.Fatalf("IDGen.Next allocates %v per call, want 0", allocs)
	}
	_ = sink
}

func TestScopeLogAttachesRequestID(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger("json", slog.LevelInfo, &buf)
	if err != nil {
		t.Fatal(err)
	}
	s := &Scope{ID: NewIDGen().Next(), Logger: lg}
	ctx := NewContext(context.Background(), s)
	if got := FromContext(ctx); got != s {
		t.Fatal("FromContext did not return the attached scope")
	}
	Warn(ctx, "degraded", slog.String("stage", "modwt"))
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, buf.String())
	}
	if rec["request_id"] != s.ID.String() {
		t.Fatalf("request_id = %v, want %s", rec["request_id"], s.ID)
	}
	if rec["stage"] != "modwt" || rec["msg"] != "degraded" {
		t.Fatalf("unexpected record %v", rec)
	}
}

func TestScopeNilSafe(t *testing.T) {
	var s *Scope
	s.Log(context.Background(), slog.LevelInfo, "ignored")
	s.AddFault("ignored")
	// No scope in context: must not panic either.
	Warn(context.Background(), "ignored")
	Info(context.Background(), "ignored")
}

func TestScopeAddFault(t *testing.T) {
	var buf bytes.Buffer
	lg, _ := NewLogger("text", slog.LevelWarn, &buf)
	s := &Scope{ID: NewIDGen().Next(), Logger: lg}
	s.AddFault("serve/worker")
	s.AddFault("spectrum/solver")
	if len(s.FaultPoints) != 2 || s.FaultPoints[0] != "serve/worker" {
		t.Fatalf("FaultPoints = %v", s.FaultPoints)
	}
	if !strings.Contains(buf.String(), "fault injected") {
		t.Fatalf("fault not logged: %q", buf.String())
	}
}

func TestNewLoggerRejectsUnknownFormat(t *testing.T) {
	if _, err := NewLogger("yaml", slog.LevelInfo, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown format accepted")
	}
	for _, f := range []string{"", "text", "json", "JSON"} {
		if _, err := NewLogger(f, slog.LevelInfo, &bytes.Buffer{}); err != nil {
			t.Fatalf("NewLogger(%q): %v", f, err)
		}
	}
}

func TestBuildInfo(t *testing.T) {
	b := GetBuildInfo()
	if b.GoVersion == "" {
		t.Fatal("GoVersion empty")
	}
	if !strings.Contains(b.String(), b.GoVersion) {
		t.Fatalf("String() %q missing go version", b.String())
	}
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	b.WriteProm(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("build info exposition invalid: %v\n%s", err, buf.String())
	}
	fams, _ := ParseExposition(buf.Bytes())
	f := FindFamily(fams, "rp_build_info")
	if f == nil || len(f.Samples) != 1 || f.Samples[0].Value != 1 {
		t.Fatalf("rp_build_info malformed: %+v", f)
	}
	if f.Samples[0].Label("go_version") != b.GoVersion {
		t.Fatalf("go_version label = %q", f.Samples[0].Label("go_version"))
	}
}

func TestRuntimeSampler(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	WriteRuntimeProm(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("runtime exposition invalid: %v\n%s", err, buf.String())
	}
	fams, _ := ParseExposition(buf.Bytes())
	gr := FindFamily(fams, "rp_go_goroutines")
	if gr == nil || len(gr.Samples) != 1 || gr.Samples[0].Value < 1 {
		t.Fatalf("rp_go_goroutines missing or implausible: %+v", gr)
	}
	heap := FindFamily(fams, "rp_go_heap_objects_bytes")
	if heap == nil || heap.Samples[0].Value <= 0 {
		t.Fatalf("rp_go_heap_objects_bytes missing or zero: %+v", heap)
	}
	pause := FindFamily(fams, "rp_go_gc_pause_seconds")
	if pause == nil || len(pause.Samples) != 3 {
		t.Fatalf("rp_go_gc_pause_seconds should have 3 quantile samples: %+v", pause)
	}
	for _, s := range pause.Samples {
		if s.Label("q") == "" {
			t.Fatalf("quantile sample missing q label: %+v", s)
		}
	}
}
