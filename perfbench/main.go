// Command perfbench is the repository's benchmark. It runs one named
// workload against the library or an in-process HTTP service built
// from this checkout, checks every output, and prints the workload's
// metrics as one JSON object on the last line of standard output.
//
//	perfbench -workload batch-calendar -seed 1 -seconds 30 -trace 0
//	perfbench compare runs/parent runs/change
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 the
// per-layer metrics of a traced run. See README.md for the workloads,
// the metrics and what each layer metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errOut receives diagnostics: failed operations and their reasons.
var errOut io.Writer = os.Stderr

// runConfig is what every workload receives.
type runConfig struct {
	root    string        // checkout root; scratch files go under root/.bench_build
	seed    int64         // the only source of randomness in the inputs
	seconds time.Duration // length of the timed window
	traced  bool          // per-layer run instead of the end-to-end run
	scale   float64       // input-size factor; 1 is the defined benchmark, tests use less
	spans   string        // optional file the traced run's spans are written to
}

// workload is one named traffic shape.
type workload struct {
	name string
	// setup performs the program's set-up for this workload (what
	// setup_s times) and returns its duration.
	setup func(cfg runConfig) (time.Duration, error)
	// run measures the workload and returns its end-to-end or, when
	// cfg.traced, per-layer metrics (setup_s is added by the caller).
	// max_rss_mb is read when the timed window ends, before teardown.
	run func(cfg runConfig) (*result, error)
}

var workloads = []workload{
	{name: "batch-calendar", setup: batchSetup, run: runBatch},
	{name: "service-hot", setup: hotSetup, run: runHot},
	{name: "jobs-durable", setup: jobsSetup, run: runJobs},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupProbes is how many times a run repeats the workload's set-up,
// each in a fresh process so process-wide caches start cold, to report
// the median as setup_s. The first half runs before the workload and
// the rest after it, so a burst of host interference on either side
// moves at most half of them.
const setupProbes = 9

// probeSetup measures one set-up; tests replace it with an in-process
// call because a test binary cannot re-execute itself as perfbench.
var probeSetup = func(w workload, cfg runConfig) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	cmd := exec.Command(exe, "-root", cfg.root, "-workload", w.name,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-setup-probe")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return 0, fmt.Errorf("setup probe output %q: %w", out, err)
	}
	return v, nil
}

// probeSetups appends n set-up probes to setups.
func probeSetups(w workload, cfg runConfig, setups []float64, n int) ([]float64, error) {
	for i := 0; i < n; i++ {
		s, err := probeSetup(w, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	return setups, nil
}

// measure runs one workload end to end: set-up probes around the
// workload (untraced runs only), the workload itself, and the
// process-wide metrics.
func measure(w workload, cfg runConfig) (*result, error) {
	var setups []float64
	var err error
	if !cfg.traced {
		if setups, err = probeSetups(w, cfg, setups, (setupProbes+1)/2); err != nil {
			return nil, err
		}
	}
	res, err := w.run(cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		if setups, err = probeSetups(w, cfg, setups, setupProbes/2); err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	defs := endToEndMetrics
	if cfg.traced {
		defs = perLayerMetrics
	}
	if err := checkMetrics(res.Metrics, defs); err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, nil
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// processCPU is the CPU time this process's threads have run. Unlike
// wall time it leaves out the time a hypervisor gives the CPUs to other
// tenants (steal time).
func processCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("process CPU clock: %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// maxRSSMB is the peak resident set size of this process.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// scratchDir makes a fresh directory for one run's files under
// root/.bench_build, the only place the benchmark writes.
func scratchDir(root, prefix string) (string, error) {
	base := filepath.Join(root, ".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	dir, err := os.MkdirTemp(base, prefix)
	if err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return dir, nil
}

// fingerprint identifies the host and the build a result came from.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	Platform   string `json:"platform"`
	Commit     string `json:"commit"`
	// Dirty is nil when the build had no version-control information
	// (a checkout without .git); SourceSHA256 identifies the sources
	// in every case.
	Dirty        *bool  `json:"dirty"`
	SourceSHA256 string `json:"sourceSha256"`
}

func hostFingerprint(root string) fingerprint {
	fp := fingerprint{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				dirty := s.Value == "true"
				fp.Dirty = &dirty
			}
		}
	}
	fp.SourceSHA256 = sourceHash(root)
	return fp
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash digests the program's sources: every .go file and go.mod
// of the root module, outside the benchmark's own directory.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fl.String("root", ".", "repository checkout the program is built from")
	name := fl.String("workload", "", "workload to run: batch-calendar, service-hot or jobs-durable")
	seed := fl.Int64("seed", 1, "seed of the generated inputs")
	seconds := fl.Float64("seconds", 30, "length of the timed window in seconds")
	traceFlag := fl.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	spans := fl.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	setupProbe := fl.Bool("setup-probe", false, "only perform the workload's set-up and print its duration in seconds")
	if err := fl.Parse(args); err != nil {
		return err
	}
	if rest := fl.Args(); len(rest) > 0 {
		if rest[0] == "compare" {
			return compareMain(*root, rest[1:], stdout)
		}
		return fmt.Errorf("unknown command %q", rest[0])
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join(*root, "internal", "serve")); err != nil {
		return fmt.Errorf("-root %s is not a checkout of the repository: %w", *root, err)
	}
	cfg := runConfig{
		root:    *root,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traceFlag == 1,
		scale:   1,
		spans:   *spans,
	}
	if *setupProbe {
		d, err := w.setup(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%.9f\n", d.Seconds())
		return nil
	}
	info := map[string]any{
		"workload":    w.name,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds.Seconds(),
		"trace":       *traceFlag,
		"fingerprint": hostFingerprint(cfg.root),
	}
	line, err := json.Marshal(info)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	res, err := measure(w, cfg)
	if err != nil {
		return err
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}
