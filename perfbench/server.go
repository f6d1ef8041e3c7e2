package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one aimserver child process.
type server struct {
	cmd     *exec.Cmd
	addr    string // RPC address
	debug   string // /metrics address
	dataDir string // "" for in-memory servers
	logs    *tail
	exited  chan struct{}
}

// tail keeps the last lines of the server's output for error reports.
type tail struct {
	lines []string
}

func (t *tail) add(s string) {
	t.lines = append(t.lines, s)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

// startServer spawns bin with args plus a loopback RPC and debug address,
// and returns once both listeners are up.
func startServer(bin, dataDir string, args []string) (*server, error) {
	args = append(append([]string{}, args...),
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-stats", "0")
	if dataDir != "" {
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		args = append(args, "-data-dir", dataDir)
	}
	cmd := exec.Command(bin, args...)
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, dataDir: dataDir, logs: &tail{}, exited: make(chan struct{})}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if s.addr == "" || s.debug == "" {
				s.logs.add(line)
				if a, ok := after(line, "aimserver: listening on "); ok {
					s.addr = a
				}
				if a, ok := after(line, "aimserver: debug endpoints on http://"); ok {
					s.debug = strings.TrimSuffix(a, "/{metrics,stats,trace,debug/pprof}")
					ready <- nil
				}
			}
		}
		_ = cmd.Wait() // the exit status of a stopped server carries nothing
		close(s.exited)
		ready <- errors.New("aimserver exited before it was ready")
	}()
	select {
	case err := <-ready:
		if err != nil {
			return nil, fmt.Errorf("%w: %s", err, strings.Join(s.logs.lines, " | "))
		}
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, errors.New("aimserver not ready after 60s")
	}
	return s, nil
}

// after returns the first space-separated word following prefix in line.
func after(line, prefix string) (string, bool) {
	i := strings.Index(line, prefix)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(prefix):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest, true
}

// stop kills the server, waits for it to exit and removes its data
// directory. Nothing after a run needs the graceful shutdown's final
// checkpoint, which would only add seconds per run.
func (s *server) stop() error {
	_ = s.cmd.Process.Kill() // fails only if it already exited
	<-s.exited
	if s.dataDir != "" {
		return os.RemoveAll(s.dataDir)
	}
	return nil
}

// procSample is what /proc says about the server at one instant.
type procSample struct {
	at       time.Time
	cpu      time.Duration // user + system
	volCtxsw int64
	hwmKB    int64 // VmHWM, peak RSS
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuTime is the user + system CPU time of a process so far.
func cpuTime(pid int) (time.Duration, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

func (s *server) proc() (procSample, error) {
	pid := s.cmd.Process.Pid
	ps := procSample{at: time.Now()}
	var err error
	if ps.cpu, err = cpuTime(pid); err != nil {
		return ps, err
	}
	// Memory is per process; context switches are per thread, so they are
	// summed over every task of the process.
	mem, err := readStatus(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	ps.hwmKB = mem["VmHWM"]
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return ps, err
	}
	for _, t := range tasks {
		st, err := readStatus(fmt.Sprintf("/proc/%d/task/%s/status", pid, t.Name()))
		if err != nil {
			continue // the thread exited
		}
		ps.volCtxsw += st["voluntary_ctxt_switches"]
	}
	return ps, nil
}

// rssMB is the server's resident set size now.
func (s *server) rssMB() (float64, error) {
	mem, err := readStatus(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	return float64(mem["VmRSS"]) / 1024, err
}

// hostCPU returns the host's stolen and total CPU time so far, in clock
// ticks, from the first line of /proc/stat. Steal is time the hypervisor
// ran something else while this machine wanted the CPU.
func hostCPU() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// readStatus parses the leading integer of every field of a
// /proc/.../status file.
func readStatus(path string) (map[string]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		if f := strings.Fields(v); len(f) > 0 {
			if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
				out[k] = n
			}
		}
	}
	return out, nil
}

// scrape fetches the server's Prometheus exposition and returns every
// sample by its full series name (labels included).
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + s.debug + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, nil
}
