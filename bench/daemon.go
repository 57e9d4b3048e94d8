package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/prefetcher"
)

// shutdownBudget is how long the daemon gets to exit 0 after SIGTERM.
// Its own drain budget is 10 s; with no request in flight it needs a
// few milliseconds, so a slow exit is a finding, not noise.
const shutdownBudget = 5 * time.Second

// readyBudget bounds boot: listen line, /healthz and the probe fetch.
const readyBudget = 10 * time.Second

// daemon is one running prefetchd subprocess.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // host:port it serves on
	pid     int
	spawned time.Time

	logMu sync.Mutex
	log   bytes.Buffer // stderr, kept for failure reports
	logs  sync.WaitGroup
}

// bootDaemon starts prefetchd on an ephemeral port against originURL
// and returns once it has answered /healthz and served one probe key
// fetched through to the origin. On any failure the process is killed
// and reaped before returning.
func bootDaemon(bin string, sp spec, o *origin) (*daemon, error) {
	args := append([]string{"-listen", "127.0.0.1:0", "-origin", o.url}, sp.daemonFlags()...)
	cmd := exec.Command(bin, args...)
	// If the bench dies without running its deferred stops, the kernel
	// takes the daemon down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	d := &daemon{cmd: cmd, spawned: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("daemon: start %s: %w", bin, err)
	}
	d.pid = cmd.Process.Pid

	// One goroutine owns stderr until EOF (the process's exit): it hands
	// over the listen address once and keeps the rest for reports.
	addrc := make(chan string, 1)
	d.logs.Add(1)
	go func() {
		defer d.logs.Done()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			d.logMu.Unlock()
			if a, ok := parseServingLine(line); ok {
				select {
				case addrc <- a:
				default:
				}
			}
		}
	}()

	select {
	case d.addr = <-addrc:
	case <-time.After(readyBudget):
		d.kill()
		return nil, fmt.Errorf("daemon: no \"serving on\" line within %v; stderr:\n%s", readyBudget, d.stderrText())
	}
	if err := d.waitReady(sp, o); err != nil {
		d.kill()
		return nil, fmt.Errorf("daemon: %w; stderr:\n%s", err, d.stderrText())
	}
	return d, nil
}

// parseServingLine extracts the address from prefetchd's
// "prefetchd: serving on 127.0.0.1:41237 (1 spaces)" log line.
func parseServingLine(line string) (string, bool) {
	const marker = "serving on "
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest, rest != ""
}

// waitReady polls /healthz until it answers 200, then fetches the probe
// key and requires that the origin served it: a daemon that is up
// before its origin would otherwise 502 the first requests of the run.
func (d *daemon) waitReady(sp spec, o *origin) error {
	deadline := time.Now().Add(readyBudget)
	c, err := dialClient(d.addr)
	for err != nil {
		if time.Now().After(deadline) {
			return fmt.Errorf("connect %s: %w", d.addr, err)
		}
		time.Sleep(time.Millisecond)
		c, err = dialClient(d.addr)
	}
	defer c.close()
	for {
		status, _, err := c.get("/healthz")
		if err == nil && status == 200 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/healthz not 200 within %v (status %d, err %v)", readyBudget, status, err)
		}
		time.Sleep(time.Millisecond)
	}
	before := o.counts().Items
	status, body, err := c.get(string(objPath(nil, probeKey)))
	if err != nil || status != 200 {
		return fmt.Errorf("probe fetch: status %d, err %v", status, err)
	}
	if err := checkPayload(body, probeKey, sp.size, true, make([]byte, sp.size)); err != nil {
		return fmt.Errorf("probe fetch: %w", err)
	}
	if o.counts().Items == before {
		return errors.New("probe fetch was answered without reaching the origin")
	}
	return nil
}

// stop sends SIGTERM and requires a clean exit (status 0) within
// shutdownBudget; otherwise the process is killed and an error
// returned. Either way it has been reaped when stop returns.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("daemon: SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		d.logs.Wait() // stderr must be drained before Wait closes it
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon: exit after SIGTERM: %w; stderr:\n%s", err, d.stderrText())
		}
		return nil
	case <-time.After(shutdownBudget):
		_ = d.cmd.Process.Kill() // best effort; Wait below reports the outcome
		<-done
		return fmt.Errorf("daemon: still running %v after SIGTERM; killed", shutdownBudget)
	}
}

// kill is the failure-path teardown: SIGKILL, reap, drain.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already-exited is fine: Wait reaps either way
	d.logs.Wait()
	_ = d.cmd.Wait() // the exit status of a killed process carries nothing
}

func (d *daemon) stderrText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// stats fetches and decodes the single space's engine snapshot.
func (d *daemon) stats(c *client) (prefetcher.Stats, error) {
	status, body, err := c.get("/stats")
	if err != nil || status != 200 {
		return prefetcher.Stats{}, fmt.Errorf("/stats: status %d, err %v", status, err)
	}
	return parseStats(body)
}

func parseStats(body []byte) (prefetcher.Stats, error) {
	var reply struct {
		Spaces map[string]prefetcher.Stats `json:"spaces"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return prefetcher.Stats{}, fmt.Errorf("/stats: %w", err)
	}
	for _, s := range reply.Spaces {
		return s, nil
	}
	return prefetcher.Stats{}, errors.New("/stats: no space in the reply")
}

// drained polls /stats until no fetch is in flight, so the counters it
// returns are final for the load sent so far.
func (d *daemon) drained(c *client) (prefetcher.Stats, error) {
	deadline := time.Now().Add(shutdownBudget)
	for {
		st, err := d.stats(c)
		if err != nil {
			return st, err
		}
		if st.InFlight == 0 {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("daemon: %d fetches still in flight %v after load stopped", st.InFlight, shutdownBudget)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// --- /proc ---------------------------------------------------------------

// userHZ is the kernel's clock-tick unit for /proc times. It is 100 on
// every Linux build Go supports; sysconf is out of reach without cgo.
const userHZ = 100

// procTimes is the CPU a process (all threads) has used.
type procTimes struct {
	UserTicks, SysTicks int64
	Threads             int
}

// parseProcStat reads utime, stime and num_threads out of a
// /proc/<pid>/stat line. The command name may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(line string) (procTimes, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return procTimes{}, errors.New("proc stat: no ')' after the command name")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state); utime, stime and num_threads are 14, 15, 20.
	if len(f) < 18 {
		return procTimes{}, fmt.Errorf("proc stat: %d fields after the command name, want at least 18", len(f))
	}
	var pt procTimes
	var err error
	if pt.UserTicks, err = strconv.ParseInt(f[11], 10, 64); err != nil {
		return procTimes{}, fmt.Errorf("proc stat: utime: %w", err)
	}
	if pt.SysTicks, err = strconv.ParseInt(f[12], 10, 64); err != nil {
		return procTimes{}, fmt.Errorf("proc stat: stime: %w", err)
	}
	if pt.Threads, err = strconv.Atoi(f[17]); err != nil {
		return procTimes{}, fmt.Errorf("proc stat: num_threads: %w", err)
	}
	return pt, nil
}

// procStatus is the part of /proc/<pid>/status the report uses.
type procStatus struct {
	VmHWMKB, VmRSSKB           int64
	VoluntaryCS, InvoluntaryCS int64
}

func parseProcStatus(text string) procStatus {
	var ps procStatus
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			continue
		}
		switch k {
		case "VmHWM":
			ps.VmHWMKB = n
		case "VmRSS":
			ps.VmRSSKB = n
		case "voluntary_ctxt_switches":
			ps.VoluntaryCS = n
		case "nonvoluntary_ctxt_switches":
			ps.InvoluntaryCS = n
		}
	}
	return ps
}

// parseCPUSteal reads the aggregate "cpu" line of /proc/stat and
// returns the steal ticks and the total over all states.
func parseCPUSteal(text string) (steal, total int64, err error) {
	line, _, _ := strings.Cut(text, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("proc stat: no aggregate cpu line")
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user, so it is left out of the total.
	for i, s := range f[1:9] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: cpu field %d: %w", i, err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// procSample is one reading of a process's /proc counters.
type procSample struct {
	procTimes
	HWMKB, RSSKB int64
}

func readProc(pid int) (procSample, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return procSample{}, err
	}
	pt, err := parseProcStat(string(stat))
	if err != nil {
		return procSample{}, err
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return procSample{}, err
	}
	ps := parseProcStatus(string(status))
	return procSample{procTimes: pt, HWMKB: ps.VmHWMKB, RSSKB: ps.VmRSSKB}, nil
}

// readCtxSwitches sums voluntary and involuntary context switches over
// a process's threads: /proc/<pid>/status counts those of one thread,
// and a Go process spreads its goroutines over several.
func readCtxSwitches(pid int) (int64, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "status"))
		if err != nil {
			continue // the thread exited between ReadDir and here
		}
		ts := parseProcStatus(string(b))
		n += ts.VoluntaryCS + ts.InvoluntaryCS
	}
	return n, nil
}

func readSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseCPUSteal(string(b))
}
