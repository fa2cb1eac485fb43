package serve_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"dcbench/internal/core"
	"dcbench/internal/report"
	"dcbench/internal/serve"
	"dcbench/internal/sweep"
	"dcbench/internal/tenant"
	"dcbench/internal/uarch"
)

// readPaths is every cacheable GET the server answers: each route and
// representation, so every render key appears exactly once.
func readPaths() []string {
	var paths []string
	for n := 1; n <= 12; n++ {
		p := "/v1/figures/" + strconv.Itoa(n)
		paths = append(paths, p, p+"?format=csv")
	}
	paths = append(paths, "/v1/tables/1", "/v1/tables/1?format=csv", "/v1/tables/2", "/v1/tables/3",
		"/v1/workloads", "/v1/workloads?format=csv")
	for _, w := range core.Registry() {
		p := "/v1/workloads/" + w.Name + "/counters"
		paths = append(paths, p, p+"?format=csv")
	}
	return paths
}

// TestWarmResponsesRenderOnce: repeated GETs of every route and format run
// each render exactly once, and every later response is the first one's
// bytes and validators. The paths the report package pins with goldens
// (run at the same options) must match those files too.
func TestWarmResponsesRenderOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization + cluster sweep")
	}
	opts := report.DefaultOptions()
	opts.Scale = 0.01
	opts.Instrs = 120_000
	opts.Warmup = 60_000
	srv := serve.New(serve.Config{Options: opts, Logger: quietLog})
	defer srv.Close()
	var mu sync.Mutex
	renders := map[string]int{}
	srv.OnRenderForTest(func(key string) {
		mu.Lock()
		renders[key]++
		mu.Unlock()
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	paths := readPaths()
	first := map[string][]byte{}
	for round := 0; round < 3; round++ {
		for _, p := range paths {
			resp, body := get(t, ts, p, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: %s status = %d: %s", round, p, resp.StatusCode, body)
			}
			if resp.Header.Get("Etag") == "" || resp.Header.Get("Vary") != "Accept" ||
				resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
				t.Fatalf("round %d: %s headers = %v", round, p, resp.Header)
			}
			if round == 0 {
				first[p] = body
			} else if string(body) != string(first[p]) {
				t.Fatalf("round %d: %s served different bytes than the first response", round, p)
			}
		}
	}
	// Accept negotiation reaches the same retained representation.
	if _, body := get(t, ts, "/v1/tables/1", map[string]string{"Accept": "text/csv"}); string(body) != string(first["/v1/tables/1?format=csv"]) {
		t.Fatal("Accept: text/csv diverges from ?format=csv")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(renders) != len(paths) {
		t.Fatalf("%d distinct render keys for %d paths: %v", len(renders), len(paths), renders)
	}
	for key, n := range renders {
		if n != 1 {
			t.Errorf("key %s rendered %d times, want 1", key, n)
		}
	}

	for path, golden := range map[string]string{
		"/v1/figures/1":            "figure1.json",
		"/v1/figures/1?format=csv": "figure1.csv",
		"/v1/figures/2":            "figure2.json",
		"/v1/figures/2?format=csv": "figure2.csv",
		"/v1/tables/1":             "table1.json",
		"/v1/tables/1?format=csv":  "table1.csv",
	} {
		want, err := os.ReadFile(filepath.Join("..", "report", "testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if string(first[path]) != string(want) {
			t.Errorf("%s diverges from report golden %s", path, golden)
		}
	}
}

// TestETagsPinned: a validator is a fixed function of the run parameters
// and the endpoint, so these tags — cut at report.DefaultOptions() — must
// never drift. Revalidating with one answers 304 without a render.
func TestETagsPinned(t *testing.T) {
	srv := serve.New(serve.Config{Logger: quietLog})
	defer srv.Close()
	srv.OnRenderForTest(func(key string) { t.Errorf("revalidation rendered %s", key) })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for path, tag := range map[string]string{
		"/v1/figures/3":               `"f68e58621836f361"`,
		"/v1/figures/3?format=csv":    `"0ca3f25d9ebcf99d"`,
		"/v1/tables/2":                `"840581f27a005fd6"`,
		"/v1/workloads/Sort/counters": `"42d1537069da6dbb"`,
	} {
		resp, _ := get(t, ts, path, map[string]string{"If-None-Match": tag})
		if resp.StatusCode != http.StatusNotModified || resp.Header.Get("Etag") != tag {
			t.Errorf("%s: status %d, Etag %s; want 304 with %s", path, resp.StatusCode, resp.Header.Get("Etag"), tag)
		}
	}
}

// failOnceBackend panics on its first Load — the sweep's memo turns that
// into an error for the render — and forwards to inner afterwards.
type failOnceBackend struct {
	inner sweep.MemoBackend
	once  sync.Once
}

func (b *failOnceBackend) Load(ctx context.Context, k sweep.Key) (*uarch.Counters, bool) {
	b.once.Do(func() { panic("injected backend failure") })
	return b.inner.Load(ctx, k)
}

func (b *failOnceBackend) Store(ctx context.Context, k sweep.Key, c *uarch.Counters) {
	b.inner.Store(ctx, k, c)
}

// TestFailedRenderNotRetained: a render that fails answers with the 500
// envelope and is forgotten, so the next request renders afresh and gets
// the correct body.
func TestFailedRenderNotRetained(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a single-workload sweep")
	}
	srv := serve.New(serve.Config{Options: testOptions(),
		Backend: &failOnceBackend{inner: newMemoryBackend()}, Logger: quietLog})
	defer srv.Close()
	var renders atomic.Int64
	srv.OnRenderForTest(func(string) { renders.Add(1) })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const path = "/v1/workloads/Sort/counters"
	resp, body := get(t, ts, path, nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("first request status = %d, want 500: %s", resp.StatusCode, body)
	}
	if code := errCode(t, resp, body); code != "internal" {
		t.Fatalf("first request error code = %q, want internal", code)
	}
	if resp.Header.Get("Etag") != "" {
		t.Fatal("failed render carries an ETag")
	}

	resp, body = get(t, ts, path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry status = %d, want 200: %s", resp.StatusCode, body)
	}
	ref := serve.New(serve.Config{Options: testOptions(), Logger: quietLog})
	defer ref.Close()
	rts := httptest.NewServer(ref.Handler())
	defer rts.Close()
	if _, want := get(t, rts, path, nil); string(body) != string(want) {
		t.Fatalf("retry body diverges from a clean server's:\n%s\nvs\n%s", body, want)
	}
	get(t, ts, path, nil)
	if n := renders.Load(); n != 2 {
		t.Fatalf("renders = %d, want 2 (the failure, then one retained success)", n)
	}
}

// requestCount matches one request-histogram _count sample.
var requestCount = regexp.MustCompile(`(?m)^dcserved_request_duration_seconds_count\{endpoint="([^"]*)"\} (\d+)$`)

// TestRequestHistogramLabels pins the endpoint label of served, unmatched,
// handler-refused and auth-denied requests: the mux pattern when a route
// matched (whether or not the mux ever ran), "unmatched" otherwise.
func TestRequestHistogramLabels(t *testing.T) {
	reg := openRegistry(t, tenant.KeyConfig{ID: "alice", Secret: "alice-key"})
	srv := serve.New(serve.Config{Options: testOptions(), Tenants: reg, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		method, path string
		hdr          map[string]string
		want         int
	}{
		{"GET", "/v1/workloads", bearer("alice-key"), http.StatusOK},
		{"GET", "/v1/workloads", bearer("alice-key"), http.StatusOK},
		{"GET", "/v1/nothing", bearer("alice-key"), http.StatusNotFound},
		{"GET", "/v1/workloads/NoSuch/counters", bearer("alice-key"), http.StatusNotFound},
		{"PUT", "/v1/workloads", bearer("alice-key"), http.StatusMethodNotAllowed},
		{"GET", "/v1/figures/3", nil, http.StatusUnauthorized},
		{"GET", "/v1/nothing", nil, http.StatusUnauthorized},
	} {
		if resp, body := doJSON(t, ts, tc.method, tc.path, nil, tc.hdr); resp.StatusCode != tc.want {
			t.Fatalf("%s %s = %d, want %d: %s", tc.method, tc.path, resp.StatusCode, tc.want, body)
		}
	}

	_, body := get(t, ts, "/metrics", nil)
	got := map[string]string{}
	for _, m := range requestCount.FindAllStringSubmatch(string(body), -1) {
		got[m[1]] = m[2]
	}
	want := map[string]string{
		"GET /v1/workloads":                 "2",
		"GET /v1/workloads/{name}/counters": "1",
		"GET /v1/figures/{n}":               "1",
		"unmatched":                         "3",
	}
	if len(got) != len(want) {
		t.Fatalf("endpoint labels = %v, want %v", got, want)
	}
	for label, n := range want {
		if got[label] != n {
			t.Errorf("endpoint %q count = %q, want %s (all: %v)", label, got[label], n, got)
		}
	}
}
