// Command perfbench is the repository's end-to-end serving benchmark.
// It drives the real ragserver and shardnode binaries over HTTP from
// one open-loop load generator and checks every output against oracles
// built in-process from the same packages:
//
//	perfbench -bin DIR -work DIR --workload W --seed N --seconds S --trace 0|1
//
// (perfbench/run.sh builds the binaries and supplies -bin and -work.)
//
// Workloads:
//
//	verify-cold            POST /verify with distinct, never-calibrated triples
//	ask-zipf               POST /ask, Zipf-popular questions over a ~36k-passage corpus
//	cluster-ingest-search  3 durable shardnodes + router: /ingest/stream, then /search
//	                       at a fixed rate while a paced stream keeps writing
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1 it carries the per-layer ledger of an in-process run
// of the same stack whose layer calls are timed by wrappers (see
// trace.go). A human-readable report goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runCtx carries one run's settings and its accounting.
type runCtx struct {
	workload string
	seed     uint64
	seconds  int
	conns    int
	bin      string
	dir      string

	start     time.Time
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
}

func (r *runCtx) logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// mark logs how far into the run a stage ended.
func (r *runCtx) mark(stage string) {
	r.logf("  [%5.1fs] %s", time.Since(r.start).Seconds(), stage)
}

// fail records a failed output check; the run then reports
// correct=false.
func (r *runCtx) fail(format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if len(r.failures) < 20 {
		r.logf("CHECK FAILED: %s", msg)
	}
	r.failures = append(r.failures, msg)
}

func (r *runCtx) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fixedDur is the fixed-rate phase length; rungDur one ladder rung
// (the ladder usually runs three to five).
func (r *runCtx) fixedDur() time.Duration { return time.Duration(r.seconds) * time.Second / 2 }
func (r *runCtx) rungDur() time.Duration  { return time.Duration(r.seconds) * time.Second / 8 }

// verifyFixedDur is verify-cold's longer fixed phase: its rate is the
// lowest, and a median needs its samples.
func (r *runCtx) verifyFixedDur() time.Duration {
	return time.Duration(r.seconds) * time.Second * 3 / 4
}

// setupRepeats is how many times each run sets its stack up from
// scratch; setup_s is their median.
const setupRepeats = 3

// latencyLimitMs is the goodput ladder's limit on tail latency.
const latencyLimitMs = 100

var workloads = map[string]struct {
	binary func(*runCtx) error
	traced func(*runCtx) error
}{
	"verify-cold":           {runVerifyCold, traceVerifyCold},
	"ask-zipf":              {runAskZipf, traceAskZipf},
	"cluster-ingest-search": {runCluster, traceCluster},
}

func main() {
	var (
		workload = flag.String("workload", "", "verify-cold, ask-zipf or cluster-ingest-search")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = per-layer ledger from the traced in-process run")
		bin      = flag.String("bin", "", "directory holding the ragserver and shardnode binaries")
		work     = flag.String("work", "", "scratch directory for logs and data directories")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -bin DIR -work DIR --workload verify-cold|ask-zipf|cluster-ingest-search --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cleanup := func() {
		stopAll()
		os.RemoveAll(dir)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	r := &runCtx{
		workload: *workload, seed: *seed, seconds: *seconds, conns: conns,
		bin: *bin, dir: dir, metrics: map[string]metric{}, start: time.Now(),
	}
	run := w.binary
	if *trace == 1 {
		run = w.traced
	}
	r.logf("perfbench %s seed=%d seconds=%d trace=%d conns=%d", *workload, *seed, *seconds, *trace, conns)
	err := run(r)
	cleanup()
	r.mark("done")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(r.failures) > 0 {
		r.logf("%d output checks failed; first: %s", len(r.failures), r.failures[0])
	}
	out, _ := json.Marshal(result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	fmt.Println(string(out))
}

// joinRates formats ladder rungs for the report.
func joinRates(rs []rung) string {
	var b strings.Builder
	for _, x := range rs {
		st := "ok"
		if !x.Pass {
			st = "FAIL"
			if x.Behind {
				st = "BEHIND"
			}
		}
		fmt.Fprintf(&b, " %.1f/s:p%.1f=%.1fms(%s)", x.Rate, 100*x.Q, x.TailMs, st)
	}
	return b.String()
}
