package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// bench is one invocation's state: where the binaries and temp
// directories are, the reference outputs, and what was measured.
type bench struct {
	root     string // checkout root (the working directory)
	bin      string // built dcserved
	tmp      string // this invocation's temp directory, removed on exit
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spec     benchSpec
	ref      reference

	mu        sync.Mutex
	nodes     map[*node]bool
	closing   bool // set by stopAll: start no more nodes
	attempted int64
	failed    int64
	failures  []string // failed checks beyond single responses
	e2e       map[string]float64
	layer     map[string]float64
	absent    map[string]bool
	notes     []string

	// Handed from the untraced run to the traced probe.
	fixture string   // warm store fixture directory, when built
	keys    string   // tenant keys file, when written
	workers []string // live dispatch workers, when running
}

func newBench(seed int64, seconds int, trace bool) (*bench, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	spec, err := readSpec(root)
	if err != nil {
		return nil, err
	}
	ref, err := loadReference(root)
	if err != nil {
		return nil, err
	}
	b := &bench{root: root, seed: seed, seconds: time.Duration(seconds) * time.Second,
		trace: trace, spec: spec, ref: ref, nodes: map[*node]bool{},
		e2e: map[string]float64{}, layer: map[string]float64{}, absent: map[string]bool{}}
	out := filepath.Join(root, buildDir)
	b.bin = filepath.Join(out, "dcserved")
	if err := goBuild(root, ".", b.bin, "./cmd/dcserved"); err != nil {
		return nil, err
	}
	if b.tmp, err = os.MkdirTemp(out, "run-"); err != nil {
		return nil, err
	}
	current.Store(b)
	return b, nil
}

// goBuild builds pkg (relative to dir) into out with the caller's Go
// toolchain and environment.
func goBuild(root, dir, out, pkg string) error {
	cmd := exec.Command("go", "-C", dir, "build", "-o", out, pkg)
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	if err := runChild(cmd); err != nil {
		return fmt.Errorf("go build %s: %w", pkg, err)
	}
	return nil
}

var (
	childMu      sync.Mutex
	children     = map[*exec.Cmd]chan struct{}{}
	childrenDone bool // set by killChildren: start no more
)

// runChild runs cmd to completion. If the benchmark is interrupted first,
// killChildren kills it and waits for it; the kernel kills it if the
// benchmark dies outright.
func runChild(cmd *exec.Cmd) error {
	if cmd.Stderr == nil {
		cmd.Stderr = os.Stderr
	}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	exited := make(chan struct{})
	childMu.Lock()
	if childrenDone {
		childMu.Unlock()
		return errShutdown
	}
	if err := cmd.Start(); err != nil {
		childMu.Unlock()
		return err
	}
	children[cmd] = exited
	childMu.Unlock()
	err := cmd.Wait()
	close(exited)
	childMu.Lock()
	delete(children, cmd)
	childMu.Unlock()
	return err
}

func killChildren() {
	childMu.Lock()
	defer childMu.Unlock()
	childrenDone = true
	for cmd, exited := range children {
		cmd.Process.Kill()
		<-exited
	}
}

func (b *bench) printEnv() {
	gover := "unknown"
	if out, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		gover = strings.TrimSpace(string(out))
	}
	// The servers inherit this process's environment, so their GOMAXPROCS
	// is this one's.
	fmt.Printf("env: workload=%s seed=%d seconds=%.0f trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s\n",
		b.workload, b.seed, b.seconds.Seconds(), b.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), gover, commitID(b.root))
}

// commitID names the code under test: the git commit when the checkout is
// a repository, else a digest of the Go sources and module file outside
// the benchmark's own directory.
func commitID(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:12]
}

var errShutdown = errors.New("benchmark is shutting down")

// node is one running dcserved process.
type node struct {
	name   string
	addr   string // 127.0.0.1:port
	cmd    *exec.Cmd
	log    string
	exited chan struct{}
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches dcserved with the given topology flags on a free port and
// waits until /healthz answers. It returns the node and the time from
// launch to ready.
func (b *bench) start(name string, args ...string) (*node, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	n := &node{name: name, addr: addr, log: filepath.Join(b.tmp, name+".log"), exited: make(chan struct{})}
	logf, err := os.Create(n.log)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	n.cmd = exec.Command(b.bin, append([]string{"-addr", addr}, args...)...)
	n.cmd.Stdout = logf
	n.cmd.Stderr = logf
	// The kernel kills the server if this process dies without cleaning up.
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	b.mu.Lock()
	if b.closing {
		b.mu.Unlock()
		return nil, 0, errShutdown
	}
	if err := n.cmd.Start(); err != nil {
		b.mu.Unlock()
		return nil, 0, err
	}
	b.nodes[n] = true
	b.mu.Unlock()
	go func() {
		n.cmd.Wait()
		close(n.exited)
	}()
	if err := n.waitReady(); err != nil {
		b.stop(n)
		return nil, 0, fmt.Errorf("%s: %w\n%s", name, err, tail(n.log))
	}
	return n, time.Since(t0), nil
}

var probeClient = &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 10 * time.Second}

func (n *node) waitReady() error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-n.exited:
			return errors.New("dcserved exited before becoming ready")
		default:
		}
		// A bare connect is cheap enough to poll finely; /healthz then
		// confirms the server answers.
		if conn, err := net.DialTimeout("tcp", n.addr, time.Second); err == nil {
			conn.Close()
			resp, err := probeClient.Get("http://" + n.addr + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return errors.New("dcserved not ready after 60s")
}

// stop shuts the node down gracefully (SIGTERM, so the store flushes),
// killing it if it has not exited within ten seconds, and waits for it.
func (b *bench) stop(n *node) {
	b.mu.Lock()
	live := b.nodes[n]
	delete(b.nodes, n)
	b.mu.Unlock()
	if !live {
		return
	}
	n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.exited:
	case <-time.After(10 * time.Second):
		n.cmd.Process.Kill()
		<-n.exited
	}
}

func (b *bench) stopAll() {
	b.mu.Lock()
	b.closing = true
	var ns []*node
	for n := range b.nodes {
		ns = append(ns, n)
	}
	b.mu.Unlock()
	for _, n := range ns {
		b.stop(n)
	}
}

// readCPUStat reads the aggregate CPU tick counters from /proc/stat:
// user nice system idle iowait irq softirq steal ...
func readCPUStat() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var ticks []float64
	for _, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil
		}
		ticks = append(ticks, v)
	}
	return ticks
}

// stealPct is the share of CPU time stolen by the hypervisor between two
// readings, in percent.
func stealPct(a, b []float64) (float64, bool) {
	const steal = 7
	if len(a) <= steal || len(b) != len(a) {
		return 0, false
	}
	total := 0.0
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return 0, false
	}
	return 100 * (b[steal] - a[steal]) / total, true
}

// cpuSeconds is the CPU time the running node's threads have used so far,
// summed from each thread's schedstat (nanoseconds). The kernel leaves out
// time the hypervisor stole from the vCPU, so on a shared host this reads
// the program's own work where wall time does not. Go's runtime seldom
// ends a thread, so little of the node's time leaves with an exited one.
func (n *node) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", n.cmd.Process.Pid)
	tids, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tids {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited after the listing
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty schedstat", n.name)
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// exitCPUSeconds is the CPU time (user + system) a stopped node used over
// its whole life, start-up and shutdown included, to the microsecond.
func (n *node) exitCPUSeconds() float64 {
	<-n.exited
	ps := n.cmd.ProcessState
	return (ps.UserTime() + ps.SystemTime()).Seconds()
}

// peakRSSMB reads the process's VmHWM in MB.
func (n *node) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// healthz fetches the node's /healthz document.
func (n *node) healthz() (map[string]any, error) {
	resp, err := probeClient.Get("http://" + n.addr + "/healthz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("%s /healthz: %w", n.name, err)
	}
	return h, nil
}

// field reads a dotted numeric path out of a /healthz document.
func field(h map[string]any, path string) (float64, bool) {
	var cur any = h
	for _, k := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = m[k]; !ok {
			return 0, false
		}
	}
	v, ok := cur.(float64)
	return v, ok
}

// tail returns the last lines of a log file, for error messages.
func tail(path string) string {
	data, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// copyDir copies a store directory tree (regular files only).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
