// Command rpserved runs the RobustPeriod detection service: a JSON
// HTTP API over the library, with a bounded worker pool, an LRU
// result cache, per-request timeouts, structured request-correlated
// logging, Prometheus metrics, a post-mortem flight recorder, and
// graceful drain on SIGTERM/SIGINT.
//
// Endpoints:
//
//	POST /v1/detect        {"series":[...], "options":{...}, "details":bool}
//	                       (?debug=1 bypasses the cache and inlines
//	                       per-stage pipeline timings in the response)
//	POST /v1/detect/batch  {"series":[[...],[...]], "options":{...}}
//	POST /v1/jobs          async submit: same body as /v1/detect, answers
//	                       202 + job ID; identical in-flight submissions
//	                       coalesce and dequeue is fair-share across
//	                       tenants (X-API-Key header)
//	GET  /v1/jobs/{id}     poll an async job: state, then the result
//	GET  /healthz
//	GET  /metrics          Prometheus text exposition
//
// Every compute response carries an X-Request-ID header; the same ID
// correlates the structured logs and retrieves the request's
// post-mortem record from the flight recorder. Sampled requests (and
// any request arriving with a sampled W3C traceparent header) also
// carry a traceparent response header whose trace ID links the span
// store, the logs, and the OpenMetrics latency exemplars
// (GET /metrics with Accept: application/openmetrics-text).
//
// With -debug-addr a second listener serves net/http/pprof under
// /debug/pprof/, the metrics JSON view under /debug/vars, the flight
// recorder under /debug/requests[/{id}], the span store under
// /debug/traces[/{traceid}], and the SLO burn-rate engine under
// /debug/slo; keep it on loopback or an internal interface.
//
// Example:
//
//	rpserved -addr :8080 -debug-addr 127.0.0.1:6060 -log-format json &
//	curl -si localhost:8080/v1/detect -d '{"series":[...]}' | grep X-Request-ID
//	curl -s 127.0.0.1:6060/debug/requests/<id>
//	go tool pprof localhost:6060/debug/pprof/profile
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"robustperiod/internal/faults"
	"robustperiod/internal/obs"
	"robustperiod/internal/serve"
	"robustperiod/internal/wal"
)

// validateConfig rejects flag values that would otherwise be absorbed
// silently (the serve defaults treat any non-positive value as "use
// the default", so a typo like -jobs-queue -100 would start a healthy-
// looking server with a 4096 queue instead of failing loudly). Flags
// where negative is a documented mode (-cache, -breaker-threshold:
// negative disables) are deliberately not checked here.
func validateConfig(cfg serve.Config) error {
	if cfg.RequestTimeout < 0 {
		return fmt.Errorf("-timeout must not be negative, got %v", cfg.RequestTimeout)
	}
	if cfg.DrainTimeout < 0 {
		return fmt.Errorf("-drain must not be negative, got %v", cfg.DrainTimeout)
	}
	if cfg.JobsQueue < 0 {
		return fmt.Errorf("-jobs-queue must not be negative, got %d", cfg.JobsQueue)
	}
	if cfg.JobsPerTenant < 0 {
		return fmt.Errorf("-jobs-per-tenant must not be negative, got %d", cfg.JobsPerTenant)
	}
	if cfg.JobsStore < 0 {
		return fmt.Errorf("-jobs-store must not be negative, got %d", cfg.JobsStore)
	}
	if cfg.JobsQuantum < 0 {
		return fmt.Errorf("-jobs-quantum must not be negative, got %d", cfg.JobsQuantum)
	}
	if cfg.JobsTTL < 0 {
		return fmt.Errorf("-jobs-ttl must not be negative, got %v", cfg.JobsTTL)
	}
	if _, _, err := wal.ParsePolicy(cfg.JobsFsync); err != nil {
		return fmt.Errorf("-fsync: %w", err)
	}
	if cfg.TraceStoreSize < 0 {
		return fmt.Errorf("-trace-store must not be negative, got %d", cfg.TraceStoreSize)
	}
	if cfg.SLOInterval < 0 {
		return fmt.Errorf("-slo-interval must not be negative, got %v", cfg.SLOInterval)
	}
	if cfg.SLOLatencyTarget < 0 {
		return fmt.Errorf("-slo-latency-target must not be negative, got %v", cfg.SLOLatencyTarget)
	}
	if cfg.ProfileMax < 0 {
		return fmt.Errorf("-profile-max must not be negative, got %d", cfg.ProfileMax)
	}
	if cfg.ProfileCPU < 0 {
		return fmt.Errorf("-profile-cpu must not be negative, got %v", cfg.ProfileCPU)
	}
	if cfg.TenantMaxLabels < 0 {
		return fmt.Errorf("-tenant-labels must not be negative, got %d", cfg.TenantMaxLabels)
	}
	return nil
}

func main() {
	var cfg serve.Config
	flag.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.DebugAddr, "debug-addr", "", "debug listener address for pprof + metrics JSON + flight recorder, e.g. 127.0.0.1:6060 (empty disables)")
	flag.DurationVar(&cfg.RequestTimeout, "timeout", 0, "per-request compute deadline (0 = 30s)")
	flag.DurationVar(&cfg.DrainTimeout, "drain", 0, "graceful-shutdown drain deadline (0 = 30s)")
	flag.Int64Var(&cfg.MaxBodyBytes, "max-body", 0, "request body limit in bytes (0 = 8 MiB)")
	flag.IntVar(&cfg.MaxSeriesLen, "max-series", 0, "points per series limit (0 = 1048576)")
	flag.IntVar(&cfg.MaxBatch, "max-batch", 0, "series per batch request limit (0 = 256)")
	flag.IntVar(&cfg.Workers, "workers", 0, "detection worker count (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.CacheSize, "cache", 0, "LRU result-cache entries (0 = 1024, negative disables)")
	flag.IntVar(&cfg.BreakerThreshold, "breaker-threshold", 0, "consecutive 500s that open an endpoint's circuit breaker (0 = 5, negative disables)")
	flag.DurationVar(&cfg.BreakerCooldown, "breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 5s)")
	flag.IntVar(&cfg.AccessLogEvery, "access-log-every", 0, "log every Nth healthy compute request (0 = 64, 1 = all, negative disables; errors always log)")
	flag.IntVar(&cfg.RecorderSize, "recorder-size", 0, "flight-recorder retained request records (0 = 256)")
	flag.IntVar(&cfg.JobsQueue, "jobs-queue", 0, "pending async job executions across all tenants (0 = 4096)")
	flag.IntVar(&cfg.JobsPerTenant, "jobs-per-tenant", 0, "live async jobs per API key (0 = jobs-queue/4)")
	flag.DurationVar(&cfg.JobsTTL, "jobs-ttl", 0, "retention of finished async jobs (0 = 5m)")
	flag.IntVar(&cfg.JobsStore, "jobs-store", 0, "retained finished async jobs (0 = 4096)")
	flag.IntVar(&cfg.JobsQuantum, "jobs-quantum", 0, "fair-share scheduling quantum in series points (0 = 4096)")
	flag.StringVar(&cfg.JobsDataDir, "data-dir", "", "directory for the durable async-job store (WAL + snapshot); empty keeps jobs in-memory")
	flag.StringVar(&cfg.JobsFsync, "fsync", "always", "WAL fsync policy with -data-dir: always, never, or an interval like 100ms")
	flag.IntVar(&cfg.TraceSampleEvery, "trace-sample", 0, "head-sample every Nth request for span tracing (0 = 16, 1 = all, negative disables; an incoming sampled traceparent always records)")
	flag.IntVar(&cfg.TraceStoreSize, "trace-store", 0, "retained traces in the in-memory span store (0 = 256)")
	flag.DurationVar(&cfg.SLOInterval, "slo-interval", 0, "SLO burn-rate evaluation interval (0 = 10s)")
	flag.DurationVar(&cfg.SLOLatencyTarget, "slo-latency-target", 0, "latency-SLO threshold a P99-good request must beat, one of the request-latency bucket bounds 1ms..30s (0 = 500ms)")
	flag.StringVar(&cfg.ProfileDir, "profile-dir", "", "directory for pprof captures on fast-burn SLO alerts (empty disables)")
	flag.IntVar(&cfg.ProfileMax, "profile-max", 0, "retained fast-burn profile capture sets (0 = 8)")
	flag.DurationVar(&cfg.ProfileCPU, "profile-cpu", 0, "CPU-profile window per fast-burn capture (0 = 5s)")
	flag.IntVar(&cfg.TenantMaxLabels, "tenant-labels", 0, "distinct tenant metric labels before new API keys fold into \"other\" (0 = 64)")
	logFormat := flag.String("log-format", "text", "log encoding: "+strings.Join(obs.LogFormats(), "|"))
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.GetBuildInfo())
		return
	}

	if err := validateConfig(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "rpserved: %v\n", err)
		os.Exit(2)
	}

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "rpserved: -log-level: %v\n", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(*logFormat, level, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rpserved: -log-format: %v\n", err)
		os.Exit(2)
	}
	cfg.Logger = logger

	bi := obs.GetBuildInfo()
	logger.Info("rpserved starting",
		slog.String("go_version", bi.GoVersion),
		slog.String("revision", bi.Revision),
		slog.Bool("dirty", bi.Dirty))

	// RP_FAULTS arms the deterministic fault-injection plan, e.g.
	//   RP_FAULTS='spectrum/solver:error:p=0.05:seed=1,serve/cache:error:p=0.01'
	// Chaos drills only — never set in production.
	if spec := os.Getenv("RP_FAULTS"); spec != "" {
		plan, err := faults.Parse(spec)
		if err != nil {
			logger.Error("RP_FAULTS invalid", slog.Any("error", err))
			os.Exit(1)
		}
		faults.Enable(plan)
		logger.Warn("FAULT INJECTION ARMED", slog.String("plan", faults.Describe()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	srv, err := serve.New(cfg)
	if err != nil {
		logger.Error("server init failed", slog.Any("error", err))
		os.Exit(1)
	}
	if err := srv.Run(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("server failed", slog.Any("error", err))
		os.Exit(1)
	}
	logger.Info("drained, bye")
}
