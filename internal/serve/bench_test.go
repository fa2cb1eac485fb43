package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/serve"
	"dcbench/internal/sweep"
)

// BenchmarkColdSweep is the service's dominant cost: one full-registry
// characterization sweep with the memo bypassed, at the test trace length.
func BenchmarkColdSweep(b *testing.B) {
	o := testOptions()
	e := sweep.NewEngine()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), core.RegistryJobs(), o.CoreConfig(),
			o.Warmup+o.Instrs, sweep.RunOptions{NoMemo: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmFigureEndpoint is the steady-state serving cost: a figure
// request answered from the retained encoded bytes (ETag + memo lookup +
// HTTP). The one render and encode happen before the timer starts.
func BenchmarkWarmFigureEndpoint(b *testing.B) {
	srv := serve.New(serve.Config{Options: testOptions(), Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := ts.Client().Get(ts.URL + "/v1/figures/3"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Get(ts.URL + "/v1/figures/3")
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status=%v err=%v", resp.StatusCode, err)
		}
		resp.Body.Close()
	}
}

// TestBenchArtifact writes the CI perf artifact (BENCH_serve.json): cold
// sweep wall time plus warm endpoint latency, so the perf trajectory of
// the serving path is recorded per commit. Gated on BENCH_SERVE_OUT so
// ordinary test runs skip it.
func TestBenchArtifact(t *testing.T) {
	out := os.Getenv("BENCH_SERVE_OUT")
	if out == "" {
		t.Skip("set BENCH_SERVE_OUT=<path> to write the perf artifact")
	}
	o := testOptions()

	start := time.Now()
	e := sweep.NewEngine()
	if _, err := e.Run(context.Background(), core.RegistryJobs(), o.CoreConfig(),
		o.Warmup+o.Instrs, sweep.RunOptions{NoMemo: true}); err != nil {
		t.Fatal(err)
	}
	sweepMS := float64(time.Since(start).Microseconds()) / 1e3

	srv := serve.New(serve.Config{Options: o, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if _, err := ts.Client().Get(ts.URL + "/v1/figures/3"); err != nil {
		t.Fatal(err) // warm the memo before timing
	}
	const reqs = 50
	var total, worst time.Duration
	for i := 0; i < reqs; i++ {
		s := time.Now()
		resp, err := ts.Client().Get(ts.URL + "/v1/figures/3")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status=%v err=%v", resp.StatusCode, err)
		}
		resp.Body.Close()
		d := time.Since(s)
		total += d
		if d > worst {
			worst = d
		}
	}
	artifact := map[string]any{
		"schema":                 1,
		"workloads":              len(core.Registry()),
		"instrs_per_workload":    o.Warmup + o.Instrs,
		"sweep_cold_ms":          sweepMS,
		"endpoint_warm_mean_us":  float64(total.Microseconds()) / reqs,
		"endpoint_warm_worst_us": float64(worst.Microseconds()),
	}
	data, err := json.MarshalIndent(artifact, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", out, data)
}
