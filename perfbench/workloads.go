package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// coldSetups is how many fresh-node starts setup_s takes the median of
	// on the cold workloads; warmSetups the same for the fixture restarts.
	coldSetups = 15
	warmSetups = 9
	// minIterations keeps a median meaningful on the cold workloads, whose
	// iterations take seconds each.
	minIterations = 3
	// condShare of warm-read requests revalidate with If-None-Match.
	condShare = 0.25
	// openRate is warm-read's open-loop arrival rate in requests per
	// second: fixed, identical on every commit, and well below the
	// closed-loop capacity, so latency measures service, not backlog.
	openRate = 1000.0
	// closedConns is warm-read's closed-loop client count: enough that the
	// node always has a request waiting, so its CPU time counts request
	// work. At one client per host CPU the node's runtime spins between
	// requests, and CPU per request swung by up to 40% between runs.
	closedConns = 16
	// window is the closed loop's throughput sampling interval; cycle is
	// one closed-loop slice (5/8) and one open-loop slice (3/8) of
	// warm-read's measured phase.
	window = 250 * time.Millisecond
	cycle  = 2 * time.Second
	// characterizedInstrs is what one characterization simulates at
	// report.DefaultOptions(): 26 workloads × (250k warmup + 650k measured).
	characterizedInstrs = 26 * 900_000
)

// charFigures are the characterization figures: all read the 26-workload
// sweep and nothing else.
var charFigures = []string{"/v1/figures/3", "/v1/figures/4", "/v1/figures/6", "/v1/figures/7",
	"/v1/figures/8", "/v1/figures/9", "/v1/figures/10", "/v1/figures/11", "/v1/figures/12"}

// clusterFigures read only the cluster simulator's 33 runs. Figure 5's
// runs are a third of Figure 2's, so it finishes first; asking for Figure 2
// in both encodings keeps the median request inside one figure's latency
// instead of halfway between the two.
var clusterFigures = []string{"/v1/figures/2", "/v1/figures/2?format=csv", "/v1/figures/5"}

// healthzField maps a per-layer count to its /healthz path.
type healthzField struct{ name, path string }

var (
	storeFields = []healthzField{
		{"healthz.store_hits", "store.hits"},
		{"healthz.store_misses", "store.misses"},
		{"healthz.store_writes", "store.writes"},
	}
	serverFields = []healthzField{
		{"healthz.render_coalesced", "stats.coalesced"},
		{"healthz.trace_cache_captures", "store.trace_cache.captures"},
		{"healthz.trace_cache_hits", "store.trace_cache.hits"},
	}
	dispatchFields = []healthzField{
		{"healthz.dispatch_remote_hits", "store.dispatch.remote_hits"},
		{"healthz.dispatch_errors", "store.dispatch.errors"},
		{"healthz.dispatch_fallbacks", "store.dispatch.fallbacks"},
	}
)

// scrape adds each field, summed over the nodes, to the per-layer
// metrics. A field no node reports is recorded as absent.
func (b *bench) scrape(fields []healthzField, nodes ...*node) error {
	var docs []map[string]any
	for _, n := range nodes {
		h, err := n.healthz()
		if err != nil {
			return err
		}
		docs = append(docs, h)
	}
	for _, f := range fields {
		sum, seen := 0.0, false
		for _, h := range docs {
			if v, ok := field(h, f.path); ok {
				sum, seen = sum+v, true
			}
		}
		if seen {
			b.layer[f.name] += sum
		} else {
			b.absent[f.name] = true
		}
	}
	return nil
}

func (b *bench) freshDir(prefix string) (string, error) {
	return os.MkdirTemp(b.tmp, prefix+"-")
}

// coldCharacterize: a fresh node with an empty store gets every
// characterization figure at once; all nine share one 26-workload sweep.
func (b *bench) coldCharacterize() error {
	if err := b.cold(charFigures); err != nil {
		return err
	}
	b.layer["sim_minstr_per_s"] = characterizedInstrs / b.layer["run_s"] / 1e6
	return nil
}

// coldCluster: a fresh node gets Figures 2 and 5 at once, the cluster
// simulator's 33 runs, and no core-model work.
func (b *bench) coldCluster() error { return b.cold(clusterFigures) }

// cold times fresh-node starts for setup_s, then runs iterations of: start
// a node on an empty store, request every path at once, stop it.
func (b *bench) cold(paths []string) error {
	var setups []float64
	for i := 0; i < coldSetups; i++ {
		dir, err := b.freshDir("setup")
		if err != nil {
			return err
		}
		settle()
		n, d, err := b.start("setup", "-store", dir)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		b.stop(n)
		os.RemoveAll(dir)
	}

	var runs, cpus, rss, lat []float64
	t0 := time.Now()
	for i := 0; i < minIterations || time.Since(t0) < b.seconds; i++ {
		dir, err := b.freshDir("cold")
		if err != nil {
			return err
		}
		n, _, err := b.start("cold", "-store", dir)
		if err != nil {
			return err
		}
		c := newClient(n.addr, len(paths))
		lats := make([]float64, len(paths))
		start := time.Now()
		var wg sync.WaitGroup
		for j, p := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := time.Now()
				r := c.get(p, "", "")
				lats[j] = ms(time.Since(t))
				b.check(p, r, false)
			}()
		}
		wg.Wait()
		wall := since(start)
		c.close()
		runs, lat = append(runs, wall), append(lat, lats...)
		mb, err := n.peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
		if b.trace && time.Since(t0) >= b.seconds && i+1 >= minIterations {
			if err := b.scrape(append(storeFields, serverFields...), n); err != nil {
				return err
			}
		}
		b.stop(n)
		cpus = append(cpus, n.exitCPUSeconds())
		os.RemoveAll(dir)
	}
	b.setSetup(setups)
	b.e2e["cpu_ms_per_req"] = 1000 * median(cpus) / float64(len(paths))
	b.e2e["peak_rss_mb"] = median(rss)
	b.layer["run_s"] = median(runs)
	b.layer["req_per_s"] = float64(len(paths)) / median(runs)
	b.setLatency(median(lat), lat, "concurrent cold requests")
	b.notes = append(b.notes, fmt.Sprintf("%d iterations; run_s per iteration: %s; node CPU s per iteration: %s",
		len(runs), fmtList(runs), fmtList(cpus)))
	return nil
}

// buildFixture makes the warm store the warm workloads start from: a node
// on an empty store serves every reference path once (so every counters
// and cluster record is simulated and stored) and shuts down cleanly.
func (b *bench) buildFixture() error {
	dir := filepath.Join(b.tmp, "fixture")
	t0 := time.Now()
	n, _, err := b.start("fixture", "-store", dir)
	if err != nil {
		return err
	}
	c := newClient(n.addr, 1)
	defer c.close()
	for _, p := range b.servedPaths() {
		b.check(p, c.get(p, "", ""), false)
	}
	b.stop(n)
	b.fixture = dir
	b.notes = append(b.notes, fmt.Sprintf("fixture built in %.2fs (not part of setup_s)", since(t0)))
	return nil
}

// writeKeys writes a two-tenant keys file with no limits and returns the
// tenants' secrets.
func (b *bench) writeKeys() ([]string, error) {
	secrets := []string{"dck_perfbench_alice_0123456789abcdef", "dck_perfbench_bob_0123456789abcdef"}
	data, err := json.Marshal(map[string]any{"keys": []map[string]string{
		{"id": "alice", "secret": secrets[0]}, {"id": "bob", "secret": secrets[1]}}})
	if err != nil {
		return nil, err
	}
	b.keys = filepath.Join(b.tmp, "keys.json")
	return secrets, os.WriteFile(b.keys, data, 0o600)
}

// warmRead: one keyed node restarted over the fixture serves the whole
// read mix, first closed-loop for throughput, then open-loop at a fixed
// rate for latency.
func (b *bench) warmRead() error {
	if err := b.buildFixture(); err != nil {
		return err
	}
	secrets, err := b.writeKeys()
	if err != nil {
		return err
	}
	paths := b.servedPaths()
	var setups []float64
	var n *node
	etags := map[string]string{}
	for i := 0; i < warmSetups; i++ {
		if n != nil {
			b.stop(n)
		}
		dir := filepath.Join(b.tmp, fmt.Sprintf("warm-%d", i))
		if err := copyDir(b.fixture, dir); err != nil {
			return err
		}
		settle()
		t0 := time.Now()
		if n, _, err = b.start("warm", "-store", dir, "-keys-file", b.keys); err != nil {
			return err
		}
		// Warming touches every endpoint once and learns its validator. It
		// runs on the closed loop's clients, so it waits on the node's work
		// rather than on one wakeup after another.
		got := make([]string, len(paths))
		next := make(chan int, len(paths))
		for i := range paths {
			next <- i
		}
		close(next)
		c := newClient(n.addr, closedConns)
		var wg sync.WaitGroup
		for range closedConns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					r := c.get(paths[i], secrets[0], "")
					b.check(paths[i], r, false)
					got[i] = r.etag
				}
			}()
		}
		wg.Wait()
		c.close()
		setups = append(setups, since(t0))
		for i, p := range paths {
			etags[p] = got[i]
		}
	}
	b.setSetup(setups)
	seq := newSequence(b.seed, paths, secrets, condShare)
	do := func(c *client) (call, reply) {
		cl := seq.next()
		etag := ""
		if cl.cond {
			etag = etags[cl.path]
		}
		return cl, c.get(cl.path, cl.key, etag)
	}

	// The measured phase alternates a closed loop (closedConns clients,
	// each waiting for its reply) with an open loop (requests due on a
	// fixed schedule whatever the server does). Each metric is the median
	// over its slices, so outside interference that lasts a few seconds
	// spoils a minority of them rather than a whole phase.
	c := newClient(n.addr, closedConns)
	var rates, cpus, p50s, lat, lag []float64
	for i := 0; i < max(1, int(b.seconds/cycle)); i++ {
		cpu0, err := n.cpuSeconds()
		if err != nil {
			return err
		}
		r, done := b.closedLoop(c, closedConns, cycle*5/8, do)
		cpu1, err := n.cpuSeconds()
		if err != nil {
			return err
		}
		rates, cpus = append(rates, r...), append(cpus, 1000*(cpu1-cpu0)/float64(done))

		l, g := b.openLoop(n.addr, cycle*3/8, do)
		p50s = append(p50s, median(l))
		lat, lag = append(lat, l...), append(lag, g...)
	}
	c.close()
	b.e2e["cpu_ms_per_req"] = median(cpus)
	b.layer["req_per_s"] = median(rates)
	b.layer["run_s"] = float64(len(paths)) / median(rates)
	b.notes = append(b.notes, fmt.Sprintf("closed loop: %d connections, %d windows of %v; req_per_s is the median window; run_s is one pass over the %d-request mix at that rate",
		closedConns, len(rates), window, len(paths)))
	b.notes = append(b.notes, fmt.Sprintf("node CPU ms per request in the %d closed-loop slices: %s", len(cpus), fmtList(cpus)))
	b.setLatency(median(p50s), lat, fmt.Sprintf("open-loop requests at %.0f/s; p50 is the median of %d slices' medians", openRate, len(p50s)))
	lagMax := slices.Max(lag)
	b.layer["loadgen.lag_p50_ms"] = median(lag)
	b.layer["loadgen.lag_max_ms"] = lagMax
	b.notes = append(b.notes, fmt.Sprintf("open-loop generator lag: p50 %.3f ms, max %.3f ms", median(lag), lagMax))

	mb, err := n.peakRSSMB()
	if err != nil {
		return err
	}
	b.e2e["peak_rss_mb"] = mb
	if b.trace {
		return b.scrape(append(storeFields, serverFields...), n)
	}
	return nil
}

// closedLoop runs conns clients, each sending its next request when the
// last one is answered, for d, and returns the request rate in each
// window of it and how many requests were answered in all.
func (b *bench) closedLoop(c *client, conns int, d time.Duration, do func(*client) (call, reply)) ([]float64, int64) {
	counts := make([]atomic.Int64, int(d/window))
	var done atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for int(time.Since(start)/window) < len(counts) {
				cl, r := do(c)
				b.check(cl.path, r, cl.cond)
				done.Add(1)
				if k := int(time.Since(start) / window); k < len(counts) {
					counts[k].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	rates := make([]float64, len(counts))
	for i := range counts {
		rates[i] = float64(counts[i].Load()) / window.Seconds()
	}
	return rates, done.Load()
}

// openLoop sends openRate requests a second for d, each from its own
// goroutine, and returns every request's latency and the generator's lag
// (how late it was sent), both measured from when it was due, in ms. The
// schedule runs on a thread of its own sleeping in nanosleep, whose wakeups
// are far finer than the runtime timer's.
func (b *bench) openLoop(addr string, d time.Duration, do func(*client) (call, reply)) (lat, lag []float64) {
	total := int(openRate * d.Seconds())
	lat, lag = make([]float64, total), make([]float64, total)
	c := newClient(addr, 64)
	defer c.close()
	var wg sync.WaitGroup
	sched := make(chan struct{})
	go func() {
		defer close(sched)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := time.Now()
		for i := 0; i < total; i++ {
			due := start.Add(time.Duration(float64(i) / openRate * float64(time.Second)))
			if wait := time.Until(due); wait > 0 {
				ts := syscall.NsecToTimespec(int64(wait))
				syscall.Nanosleep(&ts, nil)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				lag[i] = ms(time.Since(due))
				cl, r := do(c)
				lat[i] = ms(time.Since(due))
				b.check(cl.path, r, cl.cond)
			}()
		}
	}()
	<-sched
	wg.Wait()
	return lat, lag
}

// dispatchWarm: two workers start from copies of the fixture; each
// iteration starts a fresh storeless front-end over them and requests all
// twelve figures and three tables, so every counters and cluster key
// crosses the dispatch hop and none is simulated.
func (b *bench) dispatchWarm() error {
	if err := b.buildFixture(); err != nil {
		return err
	}
	var setups []float64
	var workers []*node
	for i := 0; i < warmSetups; i++ {
		for _, w := range workers {
			b.stop(w)
		}
		workers = workers[:0]
		names := []string{"worker-a", "worker-b"}
		dirs := make([]string, len(names))
		for j, name := range names {
			dirs[j] = filepath.Join(b.tmp, fmt.Sprintf("%s-%d", name, i))
			if err := copyDir(b.fixture, dirs[j]); err != nil {
				return err
			}
		}
		settle()
		t0 := time.Now()
		for j, name := range names {
			w, _, err := b.start(name, "-store", dirs[j])
			if err != nil {
				return err
			}
			workers = append(workers, w)
		}
		setups = append(setups, since(t0))
	}
	b.setSetup(setups)
	b.workers = []string{workers[0].addr, workers[1].addr}

	var paths []string
	for _, p := range b.servedPaths() {
		if (strings.HasPrefix(p, "/v1/figures/") || strings.HasPrefix(p, "/v1/tables/")) && !strings.Contains(p, "?") {
			paths = append(paths, p)
		}
	}
	seq := newSequence(b.seed, paths, nil, 0)
	var runs, rss, lat []float64
	workerCPU := func() (float64, error) {
		sum := 0.0
		for _, w := range workers {
			s, err := w.cpuSeconds()
			if err != nil {
				return 0, err
			}
			sum += s
		}
		return sum, nil
	}
	cpu0, err := workerCPU()
	if err != nil {
		return err
	}
	feCPU := 0.0
	t0 := time.Now()
	for i := 0; i < minIterations || time.Since(t0) < b.seconds; i++ {
		fe, _, err := b.start("front-end", "-store", "", "-workers", strings.Join(b.workers, ","))
		if err != nil {
			return err
		}
		feCPU0, err := fe.cpuSeconds()
		if err != nil {
			return err
		}
		c := newClient(fe.addr, 1)
		start := time.Now()
		for range paths {
			cl := seq.next()
			t := time.Now()
			r := c.get(cl.path, "", "")
			lat = append(lat, ms(time.Since(t)))
			b.check(cl.path, r, false)
		}
		wall := since(start)
		c.close()
		runs = append(runs, wall)
		feCPU1, err := fe.cpuSeconds()
		if err != nil {
			return err
		}
		feCPU += feCPU1 - feCPU0
		mb, err := fe.peakRSSMB()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
		h, err := fe.healthz()
		if err != nil {
			return err
		}
		if v, _ := field(h, "store.dispatch.fallbacks"); v != 0 {
			b.fail("front-end simulated locally: %v dispatch fallbacks", v)
		}
		if b.trace && time.Since(t0) >= b.seconds && i+1 >= minIterations {
			if err := b.scrape(append(dispatchFields, serverFields...), fe); err != nil {
				return err
			}
		}
		b.stop(fe)
	}
	cpu1, err := workerCPU()
	if err != nil {
		return err
	}
	// Each front-end from ready to its last response, and the workers
	// over the whole phase.
	reqs := float64(len(runs) * len(paths))
	b.e2e["cpu_ms_per_req"] = 1000 * (feCPU + cpu1 - cpu0) / reqs
	b.notes = append(b.notes, fmt.Sprintf("CPU ms per request: front-ends %.4g, workers %.4g", 1000*feCPU/reqs, 1000*(cpu1-cpu0)/reqs))
	b.layer["run_s"] = median(runs)
	b.layer["req_per_s"] = float64(len(paths)) / median(runs)
	b.setLatency(median(lat), lat, "sequential front-end requests")
	b.notes = append(b.notes, fmt.Sprintf("%d front-ends; run_s per front-end: median of %s", len(runs), fmtSummary(runs)))

	workerRSS := 0.0
	for _, w := range workers {
		mb, err := w.peakRSSMB()
		if err != nil {
			return err
		}
		workerRSS += mb
		h, err := w.healthz()
		if err != nil {
			return err
		}
		if v, _ := field(h, "store.writes"); v != 0 {
			b.fail("%s simulated %v records; the fixture should have held them all", w.name, v)
		}
	}
	b.e2e["peak_rss_mb"] = workerRSS + median(rss)
	if b.trace {
		return b.scrape(append(storeFields, serverFields...), workers...)
	}
	return nil
}

// exactCounts are the simulated counts the traced run recomputes; a change
// that only makes the simulators faster leaves every one identical.
var exactCounts = []string{
	"uarch.cycles", "uarch.instructions", "uarch.l1i_misses", "uarch.l1d_misses",
	"uarch.l2_misses", "uarch.l3_misses", "uarch.itlb_walks", "uarch.dtlb_walks",
	"uarch.branch_mispredicts",
	"workloads.sim_makespan_s", "workloads.disk_write_ops", "workloads.net_bytes",
}

// traced runs the in-process layer probe on this workload's inputs and
// merges its per-layer metrics, checking exact counts against the
// reference.
func (b *bench) traced() error {
	probe := filepath.Join(b.root, buildDir, "layers")
	if err := goBuild(b.root, "perfbench", probe, "./layers"); err != nil {
		return err
	}
	m, err := b.runProbe(probe, b.workload)
	if err != nil {
		return err
	}
	for k, v := range m {
		b.layer[k] = v
	}
	var diffs []string
	compared := 0
	for _, name := range exactCounts {
		got, ok := m[name]
		if !ok {
			continue
		}
		compared++
		if want := b.ref.Counts[name]; got != want {
			diffs = append(diffs, fmt.Sprintf("%s=%s (reference %s)", name, fmtNum(got), fmtNum(want)))
		}
	}
	switch {
	case len(diffs) > 0:
		fmt.Println("exact counts: differ:", strings.Join(diffs, ", "))
		b.fail("exact counts differ from the reference: %s", strings.Join(diffs, ", "))
	case compared > 0:
		fmt.Printf("exact counts: identical (%d fields)\n", compared)
	}
	return nil
}

// runProbe runs the layer probe for workload and parses its last line.
func (b *bench) runProbe(probe, workload string) (map[string]float64, error) {
	dir, err := b.freshDir("probe")
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(b.seed, 10), "-tmp", dir}
	if b.fixture != "" {
		fix := filepath.Join(dir, "fixture")
		if err := copyDir(b.fixture, fix); err != nil {
			return nil, err
		}
		args = append(args, "-fixture", fix)
	}
	if b.keys != "" {
		args = append(args, "-keys-file", b.keys)
	}
	if len(b.workers) > 0 {
		args = append(args, "-workers", strings.Join(b.workers, ","))
	}
	var out strings.Builder
	cmd := exec.Command(probe, args...)
	cmd.Stdout = &out
	if err := runChild(cmd); err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	var m map[string]float64
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &m); err != nil {
		return nil, fmt.Errorf("layer probe output: %w", err)
	}
	return m, nil
}

// record rewrites the reference from this checkout: the digest of every
// served body and the exact counts of both cold workloads.
func (b *bench) record() error {
	dir, err := b.freshDir("record")
	if err != nil {
		return err
	}
	n, _, err := b.start("record", "-store", dir)
	if err != nil {
		return err
	}
	c := newClient(n.addr, 1)
	defer c.close()
	var paths []string
	for i := 1; i <= 12; i++ {
		paths = append(paths, fmt.Sprintf("/v1/figures/%d", i), fmt.Sprintf("/v1/figures/%d?format=csv", i))
	}
	paths = append(paths, "/v1/tables/1", "/v1/tables/1?format=csv", "/v1/tables/2", "/v1/tables/3", "/v1/workloads")
	var list struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	resp, err := probeClient.Get("http://" + n.addr + "/v1/workloads")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("/v1/workloads: %w", err)
	}
	for _, w := range list.Workloads {
		paths = append(paths, "/v1/workloads/"+url.PathEscape(w.Name)+"/counters")
	}
	ref := reference{Digests: map[string]string{}, Counts: map[string]float64{}}
	for _, p := range paths {
		r := c.get(p, "", "")
		if r.err != nil || r.status != 200 {
			return fmt.Errorf("GET %s: status %d %v", p, r.status, r.err)
		}
		ref.Digests[p] = r.sum
	}
	b.stop(n)
	probe := filepath.Join(b.root, buildDir, "layers")
	if err := goBuild(b.root, "perfbench", probe, "./layers"); err != nil {
		return err
	}
	for _, wl := range []string{"cold-characterize", "cold-cluster"} {
		m, err := b.runProbe(probe, wl)
		if err != nil {
			return err
		}
		for _, name := range exactCounts {
			if v, ok := m[name]; ok {
				ref.Counts[name] = v
			}
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d digests and %d counts\n", len(ref.Digests), len(ref.Counts))
	return os.WriteFile(filepath.Join(b.root, referencePath), append(data, '\n'), 0o644)
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(s, ", ")
}

// fmtSummary gives min/median/max of a long list.
func fmtSummary(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("%d (min %.4f, median %.4f, max %.4f)", len(s), s[0], median(s), s[len(s)-1])
}

// setSetup records setup_s, the median of the set-up samples in seconds.
func (b *bench) setSetup(setups []float64) {
	b.e2e["setup_s"] = median(setups)
	b.notes = append(b.notes, "set-up samples (s): "+fmtSummary(setups))
}

// settle flushes the writes the benchmark has made so far (fixture copies,
// the last node's store, removed temp directories), so that a timed start
// does not wait behind them for the disk.
func settle() { syscall.Sync() }
