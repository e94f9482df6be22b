// Command perfbench is the repository's benchmark: one program that runs
// a named workload against the public API, verifies every answer, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as one JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
//
// Workloads, all closed loops: serve-mix (2 clients over loopback HTTP,
// light reads mostly answered by the result cache, commits invalidating
// it), join-heavy (2 clients, heavy reads, result cache off, memory budget
// below the working set) and analyze (1 library caller, the paper's
// analysis on cold caches).
// README.md in this directory explains each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run builds its set-up; setup_s reports
// the median and the run measures on the last one.
const setupReps = 5

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// smoke shrinks the data and query set so tests run in seconds.
	smoke bool
	// outDir receives the span file of a traced run.
	outDir string
}

// workload runs one named workload: untraced it measures the end-to-end
// metrics; traced it measures an untraced phase for the counters and
// the trace overhead, then a traced phase for the spans.
type workload interface {
	setup(opts options) (stamp map[string]any, err error)
	measure(opts options, tr *tracer) *phase
	verify() error
	close()
}

var workloads = map[string]func() workload{
	"serve-mix":  func() workload { return newServeWorkload(serveMix) },
	"join-heavy": func() workload { return newServeWorkload(joinHeavy) },
	"analyze":    func() workload { return &analyzeWorkload{} },
}

func main() {
	var opts options
	var trace int
	flag.StringVar(&opts.workload, "workload", "", "workload name: serve-mix, join-heavy or analyze")
	flag.Int64Var(&opts.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opts.seconds, "seconds", 10, "measured seconds per phase")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	opts.trace = trace == 1
	opts.outDir = os.Getenv("CARGO_TARGET_DIR")
	if opts.outDir == "" {
		opts.outDir = ".bench_build"
	}
	res, err := run(opts, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result line; the stamp line
// goes to info.
func run(opts options, info io.Writer) (*result, error) {
	mk, ok := workloads[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	if opts.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	var (
		w      workload
		stamp  map[string]any
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		w = mk()
		start := time.Now()
		s, err := w.setup(opts)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		stamp = s
	}
	defer w.close()

	plain := w.measure(opts, nil)
	rss := peakRSSMiB()
	var traced *phase
	var tr *tracer
	if opts.trace {
		tr = newTracer()
		traced = w.measure(opts, tr)
	}
	verr := w.verify()
	if verr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed:", verr)
	}

	for k, v := range commonStamp(opts) {
		stamp[k] = v
	}
	res := &result{Correct: verr == nil, Metrics: map[string]metric{}}
	if opts.trace {
		res.Attempted, res.Failed = traced.attempted(), traced.failed()
		for name, m := range layerMetrics(plain, traced, tr) {
			res.Metrics[name] = m
		}
		if err := tr.write(filepath.Join(opts.outDir, "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", opts.workload, opts.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	} else {
		res.Attempted, res.Failed = plain.attempted(), plain.failed()
		tail, pct, beyond := plain.tail()
		stamp["tail_percentile"] = pct
		stamp["tail_samples_beyond"] = beyond
		stamp["samples"] = len(plain.ops)
		stamp["p50_ms"] = plain.quantileMs(0.5)
		stamp["kind_p50_ms"], stamp["kind_count"] = plain.byKind()
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{float64(plain.completed()) / plain.wall.Seconds(), "ops/s"}
		res.Metrics["mean_ms"] = metric{plain.meanMs(), "ms"}
		res.Metrics["tail_ms"] = metric{tail, "ms"}
		res.Metrics["peak_rss_mib"] = metric{rss, "MiB"}
	}
	b, err := json.Marshal(stamp)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(info, "stamp %s\n", b)
	return res, nil
}

// commonStamp records what the numbers depend on besides the workload.
func commonStamp(opts options) map[string]any {
	return map[string]any{
		"workload":    opts.workload,
		"seed":        opts.seed,
		"seconds":     opts.seconds,
		"trace":       opts.trace,
		"git_commit":  envOr("PERFBENCH_COMMIT", "unknown"),
		"source_hash": envOr("PERFBENCH_SOURCE_HASH", "unknown"),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"go_version":  runtime.Version(),
		"setup_reps":  setupReps,
	}
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// opRecord is one measured operation.
type opRecord struct {
	kind string
	// latency runs from the operation's start to the end of its reply.
	latency time.Duration
	// failed marks a refused (429), erroring or unreachable operation.
	failed bool
}

// phase is one measured window of a workload.
type phase struct {
	ops  []opRecord
	wall time.Duration
	// counters are the workload's counter deltas over the window.
	counters map[string]float64
}

func (p *phase) attempted() int { return len(p.ops) }

func (p *phase) failed() int {
	n := 0
	for _, o := range p.ops {
		if o.failed {
			n++
		}
	}
	return n
}

func (p *phase) completed() int { return len(p.ops) - p.failed() }

// latencies returns the sorted latencies of completed operations of the
// given kind ("" for all kinds).
func (p *phase) latencies(kind string) []float64 {
	var xs []float64
	for _, o := range p.ops {
		if !o.failed && (kind == "" || o.kind == kind) {
			xs = append(xs, float64(o.latency)/1e6)
		}
	}
	sort.Float64s(xs)
	return xs
}

func (p *phase) quantileMs(q float64) float64 { return quantile(p.latencies(""), q) }

func (p *phase) meanMs() float64 {
	xs := p.latencies("")
	s := 0.0
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}

// byKind returns the median latency and the operation count per kind.
func (p *phase) byKind() (map[string]float64, map[string]int) {
	p50, n := map[string]float64{}, map[string]int{}
	for _, o := range p.ops {
		n[o.kind]++
	}
	for k := range n {
		p50[k] = quantile(p.latencies(k), 0.5)
	}
	return p50, n
}

// tailLadder lists the percentiles tail_ms may report, highest first.
// p99.9 is left off: with the 10–16 samples beyond it that a 30-second
// run gives, it spread 0.27–0.41 (interquartile range over median)
// between runs.
var tailLadder = []float64{99.5, 99, 98, 95, 90, 75, 50}

// tail returns the highest ladder percentile that has at least ten
// samples beyond it, with that percentile and the count beyond it.
func (p *phase) tail() (ms, pct float64, beyond int) {
	xs := p.latencies("")
	n := len(xs)
	for _, pc := range tailLadder {
		k := int(math.Ceil(pc/100*float64(n))) - 1
		if k < 0 {
			k = 0
		}
		if n-1-k >= 10 || pc == tailLadder[len(tailLadder)-1] {
			if n == 0 {
				return 0, pc, 0
			}
			return xs[k], pc, n - 1 - k
		}
	}
	return 0, 0, 0
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// peakRSSMiB reads the process high-water mark (VmHWM) in MiB.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
