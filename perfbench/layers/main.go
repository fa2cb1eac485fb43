// Command layers is the benchmark's traced run: it times calls into each
// layer's public functions, in this process and one at a time, with the
// inputs of the workload named by -workload, and prints the per-layer
// metrics as one JSON object on its last line of output. The benchmark
// harness (the parent directory) runs it after the untraced workload, with
// that workload's fixture store, keys file and live workers.
//
// It runs with GOMAXPROCS=1 so that the layer times add up to the serial
// work they describe: the trace generator's goroutine does not overlap the
// core model, and a serial sweep is the sum of its parts plus overhead.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/dispatch"
	"dcbench/internal/memtrace"
	"dcbench/internal/report"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/tenant"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

// referencePath holds the served paths and their body digests, relative to
// the repository root the benchmark runs from.
const referencePath = "perfbench/testdata/reference.json"

// authBudget is the tenant layer's advisory per-request budget.
const authBudget = 2 * time.Microsecond

// clusterSlaves are Figure 2's slave counts; Figure 5 reads the 4-slave
// runs, so these cover every cluster key the figures use.
var clusterSlaves = []int{1, 4, 8}

type probe struct {
	opts    report.Options
	tmp     string
	fixture string
	keys    string
	workers string
	seed    int64
	log     *slog.Logger
	m       map[string]float64
}

func main() {
	p := &probe{opts: report.DefaultOptions(), m: map[string]float64{},
		log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	workload := flag.String("workload", "", "benchmark workload whose layers to time")
	flag.StringVar(&p.tmp, "tmp", "", "scratch directory")
	flag.StringVar(&p.fixture, "fixture", "", "warm store directory (warm workloads)")
	flag.StringVar(&p.keys, "keys-file", "", "tenant keys file (warm-read)")
	flag.StringVar(&p.workers, "workers", "", "live dispatch workers, host:port,... (dispatch-warm)")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed: request order")
	flag.Parse()
	runtime.GOMAXPROCS(1)

	steps := map[string][]func() error{
		"cold-characterize": {p.characterize},
		"cold-cluster":      {p.cluster},
		"warm-read":         {p.storeOpen, p.storeRead, p.auth, p.render, p.handler},
		"dispatch-warm":     {p.storeOpen, p.dispatchLoad},
	}[*workload]
	if steps == nil {
		fmt.Fprintf(os.Stderr, "layers: unknown -workload %q\n", *workload)
		os.Exit(2)
	}
	t0 := time.Now()
	for _, step := range steps {
		if err := step(); err != nil {
			fmt.Fprintln(os.Stderr, "layers:", *workload+":", err)
			os.Exit(1)
		}
	}
	p.m["run.traced_s"] = time.Since(t0).Seconds()
	line, err := json.Marshal(p.m)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func (p *probe) maxInstrs() int64 { return p.opts.Warmup + p.opts.Instrs }

func (p *probe) counterKey(j sweep.Job) sweep.Key {
	return sweep.Key{Name: j.Name, Profile: j.Profile,
		ConfigFP: p.opts.CoreConfig().Fingerprint(), MaxInstrs: p.maxInstrs()}
}

func (p *probe) clusterKeys() []workloads.StatsKey {
	var ks []workloads.StatsKey
	for _, w := range workloads.All() {
		for _, s := range clusterSlaves {
			ks = append(ks, workloads.StatsKey{Workload: w.Name, Slaves: s, Scale: p.opts.Scale, Seed: p.opts.Seed})
		}
	}
	return ks
}

func perUnit(d time.Duration, n int64, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(n)
}

// characterize times trace generation, the core model and the serial
// sweep engine over the 26 characterization jobs, sums the exact counts,
// and times the store writes and reads of the resulting records.
func (p *probe) characterize() error {
	cfg := p.opts.CoreConfig()
	max := p.maxInstrs()
	jobs := core.RegistryJobs()
	buf := make([]memtrace.Inst, max)
	batch := make([]memtrace.Inst, 4096)
	var gen, step time.Duration
	var instrs int64
	var sum uarch.Counters
	counters := make([]*uarch.Counters, len(jobs))
	for i, j := range jobs {
		prof := j.Profile
		prof.MaxInstrs = max
		// Generation is timed draining into one small batch, as the core
		// consumes it; the trace is then generated again, untimed, into
		// memory for the core model alone.
		t := time.Now()
		r := memtrace.NewReader(prof, j.Gen)
		for r.Read(batch) > 0 {
		}
		gen += time.Since(t)
		n := 0
		for r := memtrace.NewReader(prof, j.Gen); n < len(buf); {
			k := r.Read(buf[n:])
			if k == 0 {
				break
			}
			n += k
		}
		c := uarch.NewCore(cfg)
		t = time.Now()
		cs := *c.Run(memtrace.NewSliceReader(buf[:n]))
		step += time.Since(t)
		counters[i] = &cs
		instrs += int64(n)
		addCounters(&sum, &cs)
	}
	t := time.Now()
	swept, err := sweep.NewEngine().Run(context.Background(), jobs, cfg, max, sweep.RunOptions{Workers: 1, NoMemo: true})
	if err != nil {
		return err
	}
	total := time.Since(t)
	for i := range jobs {
		if *swept[i] != *counters[i] {
			return fmt.Errorf("%s: sweep engine counters differ from the bare core's", jobs[i].Name)
		}
	}
	p.m["memtrace.gen_ns_per_instr"] = perUnit(gen, instrs, time.Nanosecond)
	p.m["uarch.step_ns_per_instr"] = perUnit(step, instrs, time.Nanosecond)
	p.m["sweep.overhead_ns_per_instr"] = perUnit(total-gen-step, instrs, time.Nanosecond)
	p.m["uarch.cycles"] = float64(sum.Cycles)
	p.m["uarch.instructions"] = float64(sum.Instructions)
	p.m["uarch.l1i_misses"] = float64(sum.L1IMisses)
	p.m["uarch.l1d_misses"] = float64(sum.L1DMisses)
	p.m["uarch.l2_misses"] = float64(sum.L2Misses)
	p.m["uarch.l3_misses"] = float64(sum.L3Misses)
	p.m["uarch.itlb_walks"] = float64(sum.ITLBWalks)
	p.m["uarch.dtlb_walks"] = float64(sum.DTLBWalks)
	p.m["uarch.branch_mispredicts"] = float64(sum.BranchMispredicts)

	st, err := store.Open(filepath.Join(p.tmp, "store"))
	if err != nil {
		return err
	}
	defer st.Close()
	var put, get time.Duration
	for i, j := range jobs {
		k := p.counterKey(j)
		t := time.Now()
		if err := st.Put(k, counters[i]); err != nil {
			return err
		}
		put += time.Since(t)
		t = time.Now()
		_, ok, err := st.Get(k)
		get += time.Since(t)
		if err != nil || !ok {
			return fmt.Errorf("store get %s after put: ok=%v err=%v", j.Name, ok, err)
		}
	}
	p.m["store.put_us"] = perUnit(put, int64(len(jobs)), time.Microsecond)
	p.m["store.get_us"] = perUnit(get, int64(len(jobs)), time.Microsecond)
	return nil
}

func addCounters(sum, c *uarch.Counters) {
	sum.Cycles += c.Cycles
	sum.Instructions += c.Instructions
	sum.L1IMisses += c.L1IMisses
	sum.L1DMisses += c.L1DMisses
	sum.L2Misses += c.L2Misses
	sum.L3Misses += c.L3Misses
	sum.ITLBWalks += c.ITLBWalks
	sum.DTLBWalks += c.DTLBWalks
	sum.BranchMispredicts += c.BranchMispredicts
}

// cluster times every Figure 2/5 cluster run, sums its exact counts, and
// times the store writes and reads of the resulting records.
func (p *probe) cluster() error {
	keys := p.clusterKeys()
	stats := make([]*workloads.Stats, len(keys))
	var run time.Duration
	var makespan float64
	var diskOps, netBytes int64
	for i, k := range keys {
		w := workloads.ByName(k.Workload)
		t := time.Now()
		st, err := w.Run(workloads.NewEnv(k.Slaves, k.Scale, k.Seed))
		run += time.Since(t)
		if err != nil {
			return fmt.Errorf("%s on %d slaves: %w", k.Workload, k.Slaves, err)
		}
		stats[i] = st
		makespan += st.Makespan
		diskOps += st.DiskWriteOps
		netBytes += st.NetBytes
	}
	p.m["workloads.run_s"] = run.Seconds()
	p.m["workloads.sim_makespan_s"] = makespan
	p.m["workloads.disk_write_ops"] = float64(diskOps)
	p.m["workloads.net_bytes"] = float64(netBytes)

	st, err := store.Open(filepath.Join(p.tmp, "store"))
	if err != nil {
		return err
	}
	defer st.Close()
	var put, get time.Duration
	for i, k := range keys {
		t := time.Now()
		if err := st.PutClusterStats(k, stats[i]); err != nil {
			return err
		}
		put += time.Since(t)
		t = time.Now()
		_, ok, err := st.GetClusterStats(k)
		get += time.Since(t)
		if err != nil || !ok {
			return fmt.Errorf("store get %v after put: ok=%v err=%v", k, ok, err)
		}
	}
	p.m["store.put_us"] = perUnit(put, int64(len(keys)), time.Microsecond)
	p.m["store.get_us"] = perUnit(get, int64(len(keys)), time.Microsecond)
	return nil
}

// storeOpen times opening the fixture store, the restart cost of a warm
// node.
func (p *probe) storeOpen() error {
	const opens = 5
	var ds []float64
	for i := 0; i < opens; i++ {
		t := time.Now()
		st, err := store.Open(p.fixture)
		if err != nil {
			return err
		}
		ds = append(ds, float64(time.Since(t))/float64(time.Millisecond))
		if err := st.Close(); err != nil {
			return err
		}
	}
	sort.Float64s(ds)
	p.m["store.open_ms"] = ds[opens/2]
	return nil
}

// storeRead times a read of every record in the fixture: the 26 counters
// and 33 cluster records a warm node serves from.
func (p *probe) storeRead() error {
	st, err := store.Open(p.fixture)
	if err != nil {
		return err
	}
	defer st.Close()
	var get time.Duration
	n := 0
	for _, j := range core.RegistryJobs() {
		t := time.Now()
		_, ok, err := st.Get(p.counterKey(j))
		get += time.Since(t)
		if err != nil || !ok {
			return fmt.Errorf("fixture lacks %s counters: ok=%v err=%v", j.Name, ok, err)
		}
		n++
	}
	for _, k := range p.clusterKeys() {
		t := time.Now()
		_, ok, err := st.GetClusterStats(k)
		get += time.Since(t)
		if err != nil || !ok {
			return fmt.Errorf("fixture lacks %v: ok=%v err=%v", k, ok, err)
		}
		n++
	}
	p.m["store.get_us"] = perUnit(get, int64(n), time.Microsecond)
	return nil
}

// firstSecret reads the first key's secret from the keys file.
func (p *probe) firstSecret() (string, error) {
	data, err := os.ReadFile(p.keys)
	if err != nil {
		return "", err
	}
	var f struct {
		Keys []tenant.KeyConfig `json:"keys"`
	}
	if err := json.Unmarshal(data, &f); err != nil || len(f.Keys) == 0 {
		return "", fmt.Errorf("keys file %s: no keys (%v)", p.keys, err)
	}
	return f.Keys[0].Secret, nil
}

// auth times the tenant layer's per-request work: authenticate the key,
// then spend one token of the tenant's rate limit.
func (p *probe) auth() error {
	const calls = 50_000
	reg, err := tenant.Open(p.keys, p.log)
	if err != nil {
		return err
	}
	secret, err := p.firstSecret()
	if err != nil {
		return err
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/figures/3", nil)
	req.Header.Set("Authorization", "Bearer "+secret)
	t := time.Now()
	for i := 0; i < calls; i++ {
		tn, err := reg.Authenticate(req)
		if err != nil {
			return err
		}
		if ok, _ := reg.Allow(tn); !ok {
			return errors.New("unlimited tenant was rate limited")
		}
	}
	d := time.Since(t) / calls
	p.m["tenant.auth_us"] = float64(d) / float64(time.Microsecond)
	fmt.Printf("tenant.auth_us against the advisory %v budget: %s\n", authBudget,
		map[bool]string{true: "within", false: "over"}[d <= authBudget])
	return nil
}

// render times the serving path below HTTP on a warm engine: a memoized
// sweep lookup, each figure and table render, and each table's encoders.
func (p *probe) render() error {
	st, err := store.Open(p.fixture)
	if err != nil {
		return err
	}
	defer st.Close()
	e := sweep.NewEngine()
	e.SetMemoBackend(st.Backend(p.log))
	o := p.opts
	o.Engine = e
	o.Cluster = workloads.NewStatsCache(st.StatsBackend(p.log))
	ctx := context.Background()
	jobs := core.RegistryJobs()
	cfg := o.CoreConfig()
	if _, err := e.Run(ctx, jobs, cfg, p.maxInstrs(), sweep.RunOptions{Workers: 1}); err != nil {
		return err
	}
	const hits = 2000
	t := time.Now()
	for i := 0; i < hits; i++ {
		if _, err := e.Run(ctx, jobs, cfg, p.maxInstrs(), sweep.RunOptions{Workers: 1}); err != nil {
			return err
		}
	}
	p.m["sweep.hit_us"] = perUnit(time.Since(t), hits, time.Microsecond)

	build := func() ([]*report.Table, error) {
		var ts []*report.Table
		for n := 1; n <= 12; n++ {
			tb, err := report.FigureByNumber(ctx, o, n)
			if err != nil {
				return nil, err
			}
			ts = append(ts, tb)
		}
		tb, _, err := report.TableByNumber(ctx, o, 1)
		return append(ts, tb), err
	}
	tables, err := build() // warms the cluster cache from the store
	if err != nil {
		return err
	}
	const rounds = 100
	t = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := build(); err != nil {
			return err
		}
	}
	p.m["report.render_us"] = perUnit(time.Since(t), int64(rounds*len(tables)), time.Microsecond)
	var js, cs time.Duration
	for i := 0; i < rounds; i++ {
		for _, tb := range tables {
			t := time.Now()
			if _, err := tb.JSON(); err != nil {
				return err
			}
			js += time.Since(t)
			t = time.Now()
			_ = tb.CSV()
			cs += time.Since(t)
		}
	}
	n := int64(rounds * len(tables))
	p.m["report.encode_json_us"] = perUnit(js, n, time.Microsecond)
	p.m["report.encode_csv_us"] = perUnit(cs, n, time.Microsecond)
	return nil
}

// handler times the whole HTTP handler without a network: the warm-read
// mix, keyed, in seeded order, served into a recorder. The untimed first
// pass checks every body against the reference.
func (p *probe) handler() error {
	st, err := store.Open(p.fixture)
	if err != nil {
		return err
	}
	defer st.Close()
	reg, err := tenant.Open(p.keys, p.log)
	if err != nil {
		return err
	}
	secret, err := p.firstSecret()
	if err != nil {
		return err
	}
	h := serve.New(serve.Config{Store: st, Tenants: reg, Logger: p.log}).Handler()
	// The mix is every path the reference covers, as on the wire.
	data, err := os.ReadFile(referencePath)
	if err != nil {
		return err
	}
	var ref struct {
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("%s: %w", referencePath, err)
	}
	var paths []string
	for path := range ref.Digests {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	serveOne := func(path string) (*httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("Authorization", "Bearer "+secret)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		return rec, nil
	}
	for _, path := range paths {
		rec, err := serveOne(path)
		if err != nil {
			return err
		}
		if sum := sha256.Sum256(rec.Body.Bytes()); hex.EncodeToString(sum[:]) != ref.Digests[path] {
			return fmt.Errorf("GET %s: in-process body differs from the reference", path)
		}
	}
	const passes = 40
	rng := rand.New(rand.NewSource(p.seed))
	var order []string
	for i := 0; i < passes; i++ {
		for _, k := range rng.Perm(len(paths)) {
			order = append(order, paths[k])
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	for _, path := range order {
		if _, err := serveOne(path); err != nil {
			return err
		}
	}
	d := time.Since(t)
	runtime.ReadMemStats(&after)
	p.m["serve.handler_us"] = perUnit(d, int64(len(order)), time.Microsecond)
	p.m["serve.alloc_bytes_per_req"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(len(order))
	return nil
}

// dispatchLoad times RemoteBackend loads of every counters and cluster key
// against the live workers, which hold them all in their stores.
func (p *probe) dispatchLoad() error {
	var opts dispatch.Options
	fs := flag.NewFlagSet("dispatch", flag.ContinueOnError)
	dispatch.RegisterFlags(fs, &opts)
	if err := fs.Parse([]string{"-workers", p.workers}); err != nil {
		return err
	}
	rb, err := dispatch.New(opts, p.opts.Warmup, nil, nil, p.log)
	if err != nil {
		return err
	}
	ctx := context.Background()
	const rounds = 3
	var d time.Duration
	n := 0
	for r := 0; r < rounds; r++ {
		for _, j := range core.RegistryJobs() {
			t := time.Now()
			_, ok := rb.Load(ctx, p.counterKey(j))
			d += time.Since(t)
			if !ok {
				return fmt.Errorf("dispatch load of %s counters missed", j.Name)
			}
			n++
		}
		for _, k := range p.clusterKeys() {
			t := time.Now()
			_, ok := rb.LoadStats(ctx, k)
			d += time.Since(t)
			if !ok {
				return fmt.Errorf("dispatch load of %v missed", k)
			}
			n++
		}
	}
	p.m["dispatch.load_ms"] = perUnit(d, int64(n), time.Millisecond)
	return nil
}
