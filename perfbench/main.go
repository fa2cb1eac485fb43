// Command perfbench is the repository's benchmark. It builds dcserved from
// the checkout it runs in, drives the real binary over loopback through one
// of four workloads, checks every response body against checked-in SHA-256
// digests, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// names; with --trace 1 the untraced workload runs first and a separate
// in-process probe (./layers) then times each layer's public functions,
// giving the per-layer metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload warm-read --seed 1 --seconds 15 --trace 0
//
// --record rewrites the reference digests and exact counts under testdata
// from the checkout's current output. See README.md for the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildDir holds every build output and run-time temp directory; it is
// ignored by git and lives inside the checkout.
const buildDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var workloadNames = []string{"cold-characterize", "cold-cluster", "warm-read", "dispatch-warm"}

func main() {
	code := run()
	cleanup()
	os.Exit(code)
}

var (
	cleanupOnce sync.Once
	current     atomic.Pointer[bench] // set once its temp directory exists
)

// cleanup stops every process the benchmark started, waiting for each, and
// removes its temp directory. It runs once, on any exit path, signals
// included.
func cleanup() {
	cleanupOnce.Do(func() {
		killChildren()
		if b := current.Load(); b != nil {
			b.stopAll()
			os.RemoveAll(b.tmp)
		}
	})
}

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed: request order and conditional-GET selection")
	seconds := flag.Int("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 adds the traced per-layer run and prints per-layer metrics")
	record := flag.Bool("record", false, "rewrite testdata reference digests and exact counts from this checkout")
	flag.Parse()
	// The load generator shares the host with the servers it measures;
	// collecting its own garbage less often leaves them more of it.
	debug.SetGCPercent(400)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	go func() {
		s := <-sigs
		fmt.Fprintln(os.Stderr, "perfbench: interrupted by", s)
		cleanup()
		os.Exit(1)
	}()

	b, err := newBench(*seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *record {
		if err := b.record(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	wl, ok := map[string]func() error{
		"cold-characterize": b.coldCharacterize,
		"cold-cluster":      b.coldCluster,
		"warm-read":         b.warmRead,
		"dispatch-warm":     b.dispatchWarm,
	}[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	b.workload = *workload
	b.printEnv()
	stat0 := readCPUStat()
	if err := wl(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", *workload+":", err)
		return 1
	}
	if steal, ok := stealPct(stat0, readCPUStat()); ok {
		// Time the hypervisor gave this host's CPUs to someone else: the
		// first thing to check when a run reads slow.
		b.layer["host.steal_pct"] = steal
		b.notes = append(b.notes, fmt.Sprintf("host CPU steal during the workload: %.1f%%", steal))
	}
	if b.trace {
		if err := b.traced(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			return 1
		}
	}
	if err := b.report(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints the human-readable lines and the final JSON line.
func (b *bench) report() error {
	if b.attempted < 1 {
		return errors.New("no request was attempted")
	}
	b.e2e["ok_share"] = float64(b.attempted-b.failed) / float64(b.attempted)
	specs := b.spec.EndToEnd
	src := b.e2e
	if b.trace {
		specs = b.spec.PerLayer
		src = b.layer
	}
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := src[s.Name]
		switch {
		case ok:
			out[s.Name] = metric{Value: v, Unit: s.Unit}
		case b.absent[s.Name]:
			fmt.Printf("%-34s absent (no such /healthz field)\n", s.Name)
		case b.trace:
			// A layer this workload does not exercise did no work.
			out[s.Name] = metric{Value: 0, Unit: s.Unit}
		default:
			return fmt.Errorf("workload %s produced no %s", b.workload, s.Name)
		}
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	if !b.trace {
		// Wall-clock figures swing with host CPU steal, so they are
		// per-layer numbers; shown here for people, not in the JSON.
		fmt.Printf("wall clock (ungated): run_s %.6g s, req_per_s %.6g 1/s, latency_p50_ms %.6g ms\n",
			b.layer["run_s"], b.layer["req_per_s"], b.layer["latency_p50_ms"])
	}
	for _, n := range b.notes {
		fmt.Println("note:", n)
	}
	for _, c := range b.failures {
		fmt.Println("FAILED:", c)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(b.failures) == 0 && b.failed == 0, b.attempted, b.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func readSpec(root string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
