package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one icid process the benchmark started: cmd/icid -workers 2
// on a free loopback port with its own -store directory.
type daemon struct {
	cmd      *exec.Cmd
	url      string
	storeDir string
	client   *http.Client

	// GC cycles parsed from icid's GODEBUG=gctrace=1 output (traced
	// runs only), stamped with the time the line was read.
	gcMu   sync.Mutex
	gcs    []gcCycle
	stderr sync.WaitGroup
}

type gcCycle struct {
	at      time.Time
	pauseMS float64 // stop-the-world clock time: sweep termination + mark termination
	heapMB  float64 // heap size when the cycle started
}

// icidWorkers is the scheduler size every icid workload runs with, and
// the number of client connections a workload opens at most.
const icidWorkers = 2

// startDaemon boots icid and waits until /healthz answers. The store
// directory is created under dir.
func startDaemon(ctx context.Context, bin, dir string, gctrace bool) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(icidWorkers), "-store", storeDir)
	// icid must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(storeDir)
		return nil, fmt.Errorf("starting icid: %w", err)
	}
	d := &daemon{
		cmd: cmd, url: "http://" + addr, storeDir: storeDir,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: icidWorkers}},
	}
	d.stderr.Add(1)
	go d.readStderr(stderr)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ctx.Err() != nil || time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("icid on %s did not become healthy", addr)
		}
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// gctraceLine matches the fields the benchmark uses of a gctrace line:
// "gc 7 @0.1s 2%: 0.02+1.1+0.01 ms clock, ..., 4->5->2 MB, ...".
var gctraceLine = regexp.MustCompile(`^gc \d+ @[0-9.]+s \d+%: ([0-9.]+)\+[0-9.]+\+([0-9.]+) ms clock, .* (\d+)->\d+->\d+ MB`)

func (d *daemon) readStderr(r io.Reader) {
	defer d.stderr.Done()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := gctraceLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		a, _ := strconv.ParseFloat(m[1], 64) // the pattern only matches numbers
		b, _ := strconv.ParseFloat(m[2], 64)
		h, _ := strconv.ParseFloat(m[3], 64)
		d.gcMu.Lock()
		d.gcs = append(d.gcs, gcCycle{at: time.Now(), pauseMS: a + b, heapMB: h})
		d.gcMu.Unlock()
	}
	io.Copy(io.Discard, r) // after a scan error, keep icid from blocking on a full pipe
}

// gcBetween sums icid's GC cycles that were reported in [from, to).
func (d *daemon) gcBetween(from, to time.Time) (cycles int, pauseMS, heapPeakMB float64) {
	d.gcMu.Lock()
	defer d.gcMu.Unlock()
	for _, c := range d.gcs {
		if !c.at.Before(from) && c.at.Before(to) {
			cycles++
			pauseMS += c.pauseMS
			heapPeakMB = max(heapPeakMB, c.heapMB)
		}
	}
	return
}

// stop drains icid with SIGTERM, as an operator would, and kills it if
// the drain takes more than 20 s. It waits for the process and removes
// the store directory.
func (d *daemon) stop() error {
	defer os.RemoveAll(d.storeDir)
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	// icid's stderr reaches EOF when the process exits; Wait may only be
	// called once every read from the pipe is done.
	drained := make(chan struct{})
	go func() {
		d.stderr.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-drained
		err = errors.New("icid did not drain within 20s")
	}
	if werr := d.cmd.Wait(); err == nil {
		err = werr
	}
	return err
}

// procStatusKB reads one kB field of /proc/<pid>/status ("self" for
// this process), such as "VmHWM:" or "VmRSS:".
func procStatusKB(pid, field string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// vmHWM is a process's peak resident set size in MB.
func vmHWM(pid string) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM:")
	return kb / 1024, err
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// cpu is the CPU time icid has used since it started.
func (d *daemon) cpu() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }

// post sends a JSON body and decodes the JSON reply into out. Transport
// failures and non-2xx replies are errors.
func (d *daemon) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, "POST", d.url+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return d.do(req, out)
}

func (d *daemon) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, "GET", d.url+path, nil)
	if err != nil {
		return err
	}
	return d.do(req, out)
}

func (d *daemon) do(req *http.Request, out any) error {
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	return nil
}

// icidMetrics is the part of GET /metrics the benchmark reads.
type icidMetrics struct {
	Submitted      int64            `json:"submitted"`
	Queued         int64            `json:"queued"`
	Running        int64            `json:"running"`
	Completed      int64            `json:"completed"`
	Errors         int64            `json:"errors"`
	Verified       int64            `json:"verified"`
	Violated       int64            `json:"violated"`
	Exhausted      int64            `json:"exhausted"`
	Cancelled      int64            `json:"cancelled"`
	CacheHits      int64            `json:"cache_hits"`
	Engines        map[string]int64 `json:"engines"`
	Batches        int64            `json:"batches"`
	Attempts       int64            `json:"attempts"`
	Escalations    int64            `json:"escalations"`
	CacheLookups   int64            `json:"cache_lookups"`
	CacheMemHits   int64            `json:"cache_memory_hits"`
	CacheStoreHits int64            `json:"cache_store_hits"`
	CacheMisses    int64            `json:"cache_misses"`
	CacheEvictions int64            `json:"cache_evictions"`
}

func (d *daemon) metrics(ctx context.Context) (icidMetrics, error) {
	var m icidMetrics
	err := d.get(ctx, "/metrics", &m)
	return m, err
}

// invariants returns the sum invariants of internal/server/metrics.go
// that m breaks. The daemon must be idle (nothing queued or running
// would still be consistent, but the benchmark reads it after the
// window's last reply).
func (m icidMetrics) invariants() []string {
	var bad []string
	check := func(ok bool, what string) {
		if !ok {
			bad = append(bad, what)
		}
	}
	check(m.Submitted == m.Queued+m.Running+m.Completed+m.Errors, "submitted == queued+running+completed+errors")
	check(m.Completed == m.Verified+m.Violated+m.Exhausted, "completed == verified+violated+exhausted")
	check(m.Cancelled <= m.Exhausted, "cancelled <= exhausted")
	var engines int64
	for _, n := range m.Engines {
		engines += n
	}
	check(engines == m.Completed, "sum over engines == completed")
	check(m.Escalations <= m.Attempts, "escalations <= attempts")
	check(m.CacheLookups == m.CacheMemHits+m.CacheStoreHits+m.CacheMisses, "cache_lookups == memory+store+misses")
	check(m.CacheHits == m.CacheMemHits+m.CacheStoreHits, "cache_hits == memory+store hits")
	return bad
}

// checkInvariants reads /metrics and counts every broken invariant as a
// failure.
func checkInvariants(ctx context.Context, d *daemon, res *result) icidMetrics {
	m, err := d.metrics(ctx)
	if err != nil {
		res.fail("reading /metrics: %v", err)
		return m
	}
	for _, inv := range m.invariants() {
		res.fail("/metrics invariant broken: %s (%+v)", inv, m)
	}
	return m
}

// How many times a run sets up, for a median set-up time. An icid boot
// costs icid a few ms of CPU time, so a run boots it many times; the
// jobs-hot set-up also computes 512 models, about 2 s of CPU time, and
// the paper-tables set-up builds 32 problems, about 0.2 s.
const (
	bootReps   = 15
	hotReps    = 9
	tablesReps = 9
)

// bootDaemons sets up an icid workload reps times: boot a fresh icid
// and run prepare against it. A set-up's cost is icid's CPU time from
// exec until prepare returns (the benchmark's own client work is input
// generation, not the system's set-up). All but the last daemon are
// stopped, each after retire (when not nil) has run against it; the
// last is returned for the measured window, with the median and every
// set-up cost.
func bootDaemons(ctx context.Context, cfg config, reps int, prepare, retire func(*daemon) error) (*daemon, float64, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		d, err := startDaemon(ctx, cfg.icid, cfg.out, cfg.trace)
		if err != nil {
			return nil, 0, nil, err
		}
		if prepare != nil {
			if err := prepare(d); err != nil {
				d.stop()
				return nil, 0, nil, err
			}
		}
		icidCPU, err := d.cpu()
		if err != nil {
			d.stop()
			return nil, 0, nil, err
		}
		times = append(times, icidCPU.Seconds())
		if i == reps-1 {
			return d, median(times), times, nil
		}
		if retire != nil {
			if err := retire(d); err != nil {
				d.stop()
				return nil, 0, nil, err
			}
		}
		if err := d.stop(); err != nil {
			return nil, 0, nil, err
		}
	}
}

func spanPath(cfg config) string {
	return filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.name, cfg.seed))
}
