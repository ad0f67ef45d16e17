// Package obs is the unified observability layer of the serving
// stack: per-request correlation IDs propagated through context,
// structured logging on log/slog, latency quantiles derived from bucket
// histograms, a Prometheus text-exposition writer plus a conformance
// checker for it, runtime gauges sourced from runtime/metrics, build
// information, and a post-mortem flight recorder retaining the last K
// request records with error/degraded requests pinned preferentially.
//
// Like the rest of the repository the package is pure standard
// library. The hot-path primitives (ID generation, flight-recorder
// commit) are allocation-free so they can ride on the cached-result
// path of the service without showing up in allocation profiles; the
// serve tests pin that with testing.AllocsPerRun.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// ID is a 16-byte request correlation identifier, rendered as 32
// lowercase hex characters (e.g. in the X-Request-ID header).
type ID [16]byte

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id == ID{} }

// String renders the ID as 32 hex characters. It allocates; hot paths
// that only need the bytes should use AppendHex.
func (id ID) String() string {
	var b [32]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// AppendHex appends the 32-character hex form to dst and returns the
// extended slice, allocation-free when dst has capacity.
func (id ID) AppendHex(dst []byte) []byte {
	var b [32]byte
	hex.Encode(b[:], id[:])
	return append(dst, b[:]...)
}

// ParseID decodes the 32-hex-character wire form of an ID.
func ParseID(s string) (ID, bool) {
	var id ID
	if len(s) != 32 {
		return ID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return ID{}, false
	}
	return id, true
}

// IDGen mints process-unique request IDs: an 8-byte random per-process
// prefix plus a bijective mix of an atomic counter, so Next is
// lock-free, allocation-free, and never repeats within a process.
type IDGen struct {
	prefix [8]byte
	ctr    atomic.Uint64
}

// NewIDGen seeds a generator from crypto/rand (falling back to the
// clock if the system entropy source is unreadable).
func NewIDGen() *IDGen {
	g := &IDGen{}
	if _, err := rand.Read(g.prefix[:]); err != nil {
		binary.BigEndian.PutUint64(g.prefix[:], uint64(time.Now().UnixNano()))
	}
	return g
}

// splitmix64 is a bijection on uint64 (Steele et al.), spreading the
// sequential counter across the ID space.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Next returns a fresh ID. Safe for concurrent use; allocation-free.
func (g *IDGen) Next() ID {
	var id ID
	copy(id[:8], g.prefix[:])
	binary.BigEndian.PutUint64(id[8:], splitmix64(g.ctr.Add(1)))
	return id
}

// Scope carries one request's observability state: the correlation ID
// and the logger every pipeline event should correlate against, plus
// the request annotations the serving layer accumulates for the
// flight recorder. A Scope belongs to a single request; most fields
// are written by the request's own handler goroutine (worker handoffs
// are ordered through the result channel), so they carry no lock.
// FaultPoints is the exception — a batch fans one scope out to many
// concurrent workers, any of which may hit a fault — so AddFault is
// internally synchronized.
type Scope struct {
	ID     ID
	Logger *slog.Logger // nil disables logging

	// Request annotations for the flight-recorder record, filled in by
	// the serving layer as the request progresses.
	Endpoint      string
	Tenant        string // cardinality-capped tenant label (X-API-Key)
	Start         time.Time
	SeriesLen     int    // points of the series (detect)
	BatchSize     int    // series count (batch)
	OptionsDigest uint64 // FNV-1a of the canonical options encoding
	Cached        bool
	ErrorCode     string
	DegradedCount int // degradation annotations on the result(s)
	ItemErrors    int // failed items inside a batch
	Degraded      any // e.g. []core.Degradation; set only when non-empty
	Trace         any // e.g. *trace.Summary of the detection
	Spans         any // e.g. *trace.Recording when the request is sampled

	faultMu     sync.Mutex
	FaultPoints []string
}

// AddFault notes a fired fault point on the record and logs it with
// the request ID. Safe for concurrent use (batch workers share one
// scope).
func (s *Scope) AddFault(point string) {
	if s == nil {
		return
	}
	s.faultMu.Lock()
	s.FaultPoints = append(s.FaultPoints, point)
	s.faultMu.Unlock()
	s.Log(context.Background(), slog.LevelWarn, "fault injected",
		slog.String("point", point))
}

// Faults returns a snapshot of the fired fault points.
func (s *Scope) Faults() []string {
	if s == nil {
		return nil
	}
	s.faultMu.Lock()
	defer s.faultMu.Unlock()
	return append([]string(nil), s.FaultPoints...)
}

// Log emits one structured record on the scope's logger with the
// request_id attribute attached. Nil-safe: a nil scope or nil logger
// makes it a no-op.
func (s *Scope) Log(ctx context.Context, level slog.Level, msg string, attrs ...slog.Attr) {
	if s == nil || s.Logger == nil {
		return
	}
	if !s.Logger.Enabled(ctx, level) {
		return
	}
	attrs = append(attrs, slog.String("request_id", s.ID.String()))
	s.Logger.LogAttrs(ctx, level, msg, attrs...)
}

// ctxKey is the context key type for the request scope.
type ctxKey struct{}

// NewContext attaches a request scope to ctx; the pipeline retrieves
// it with FromContext to correlate degradation and fault events.
func NewContext(ctx context.Context, s *Scope) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the request scope attached to ctx, or nil.
func FromContext(ctx context.Context) *Scope {
	s, _ := ctx.Value(ctxKey{}).(*Scope)
	return s
}

// Warn logs a warning against the request scope in ctx, if any — the
// one-liner the pipeline uses for degradation events. No scope, no
// work.
func Warn(ctx context.Context, msg string, attrs ...slog.Attr) {
	FromContext(ctx).Log(ctx, slog.LevelWarn, msg, attrs...)
}

// Info logs an informational record against the request scope in ctx.
func Info(ctx context.Context, msg string, attrs ...slog.Attr) {
	FromContext(ctx).Log(ctx, slog.LevelInfo, msg, attrs...)
}
