package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// referencePath holds the reference outputs at report.DefaultOptions():
// the SHA-256 of every served body, keyed by request path, and the exact
// simulated counts the traced run recomputes.
const referencePath = "perfbench/testdata/reference.json"

type reference struct {
	Digests map[string]string  `json:"digests"`
	Counts  map[string]float64 `json:"counts"`
}

func loadReference(root string) (reference, error) {
	var ref reference
	data, err := os.ReadFile(filepath.Join(root, referencePath))
	if err != nil {
		return ref, err
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return ref, fmt.Errorf("%s: %w", referencePath, err)
	}
	if len(ref.Digests) == 0 {
		return ref, fmt.Errorf("%s: no digests", referencePath)
	}
	return ref, nil
}

// servedPaths is every path the reference covers: all twelve figures in
// JSON and CSV, Table I in JSON and CSV, Tables II and III, the workload
// list and every workload's counters.
func (b *bench) servedPaths() []string {
	var ps []string
	for p := range b.ref.Digests {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

// client issues GETs against one node; each caller goroutine uses one
// keep-alive connection at a time.
type client struct {
	hc   *http.Client
	addr string
}

func newClient(addr string, conns int) *client {
	return &client{addr: addr, hc: &http.Client{
		Timeout: 150 * time.Second,
		Transport: &http.Transport{Proxy: nil, DisableCompression: true,
			MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

type reply struct {
	status int
	sum    string // SHA-256 of a 200 body
	size   int64
	detail []byte // the start of any other body, for messages
	etag   string
	err    error
}

var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// get fetches path, presenting key as a bearer token when set and etag as
// If-None-Match when set. A 200 body is hashed as it streams in, so the
// load generator neither buffers nor allocates per body.
func (c *client) get(path, key, etag string) reply {
	req, err := http.NewRequest(http.MethodGet, "http://"+c.addr+path, nil)
	if err != nil {
		return reply{err: err}
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode, etag: resp.Header.Get("Etag")}
	if r.status != http.StatusOK {
		r.detail, r.err = io.ReadAll(io.LimitReader(resp.Body, 512))
		r.size = int64(len(r.detail))
		return r
	}
	h := sha256.New()
	buf := copyBufs.Get().(*[32 << 10]byte)
	r.size, r.err = io.CopyBuffer(h, resp.Body, buf[:])
	copyBufs.Put(buf)
	r.sum = hex.EncodeToString(h.Sum(nil))
	return r
}

// check counts one attempted response and reports whether it is right: a
// conditional GET must answer 304 with no body, any other GET 200 with a
// body whose digest matches the reference.
func (b *bench) check(path string, r reply, conditional bool) bool {
	var bad string
	switch {
	case r.err != nil:
		bad = r.err.Error()
	case conditional && (r.status != http.StatusNotModified || r.size != 0):
		bad = fmt.Sprintf("status %d, want 304", r.status)
	case !conditional && r.status != http.StatusOK:
		bad = fmt.Sprintf("status %d: %.200s", r.status, r.detail)
	case !conditional && r.sum != b.ref.Digests[path]:
		bad = "body digest differs from the reference"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if bad == "" {
		return true
	}
	b.failed++
	if b.failed <= 5 {
		b.notes = append(b.notes, fmt.Sprintf("wrong response: GET %s: %s", path, bad))
	}
	return false
}

// fail records a failed check that is not a single response.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// call is one generated request.
type call struct {
	path string
	key  string
	cond bool
}

// sequence deals requests in seeded order: each pass over the mix is a
// fresh permutation, a fixed share of requests are conditional, and the
// tenant key is drawn per request. The seed changes only order and
// selection; every request is one the server answers identically.
type sequence struct {
	mu        sync.Mutex
	rng       *rand.Rand
	paths     []string
	keys      []string
	condShare float64
	order     []int
}

func newSequence(seed int64, paths, keys []string, condShare float64) *sequence {
	return &sequence{rng: rand.New(rand.NewSource(seed)), paths: paths, keys: keys, condShare: condShare}
}

func (s *sequence) next() call {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.order) == 0 {
		s.order = s.rng.Perm(len(s.paths))
	}
	c := call{path: s.paths[s.order[0]], cond: s.rng.Float64() < s.condShare}
	s.order = s.order[1:]
	if len(s.keys) > 0 {
		c.key = s.keys[s.rng.Intn(len(s.keys))]
	}
	return c
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest order statistic with at least ten samples
// beyond it, the percentile that is, and the sample count. With ten or
// fewer samples it returns the maximum.
func tailOf(xs []float64) (v, pct float64, n int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n = len(s)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	k := n - 11
	if k < 0 {
		k = n - 1
	}
	return s[k], 100 * float64(k+1) / float64(n), n
}

// setLatency records latency_p50_ms, and the tail of the samples (in ms)
// with its percentile and sample count. All are ungated per-layer numbers:
// wall-clock latency moves too much between identical runs on a shared
// host to gate on.
func (b *bench) setLatency(p50 float64, lat []float64, what string) {
	v, pct, n := tailOf(lat)
	b.layer["latency_p50_ms"] = p50
	b.layer["latency.tail_ms"] = v
	b.layer["latency.tail_pct"] = pct
	b.layer["latency.samples"] = float64(n)
	b.notes = append(b.notes, fmt.Sprintf("latency over %d %s: tail %.3f ms is p%.2f (%.0f samples beyond it)",
		n, what, v, pct, float64(n)*(1-pct/100)))
}
