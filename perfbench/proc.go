package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// benchCPU is the one CPU the whole benchmark runs on: run.sh starts
// the load generator there, and the generator starts every daemon and
// the echo server there too. A round trip then never wakes a thread on
// the other vCPU; on the two-vCPU VM the benchmark was sized on, such
// wake-ups made a loopback round trip take either 0.06 or 0.1 ms,
// flipping between the two from one quarter second to the next, and a
// loop's rate is the inverse of the CPU time it costs on both sides, so
// the daemon's share of it shows in full (README).
const benchCPU = "1" // must match run.sh

// command prepares a child process that runs bin on the given CPUs
// only, and that the kernel kills if the benchmark dies first, so no
// daemon outlives an interrupted run. taskset execs bin in its own
// process, so the pid, its /proc status and its rusage are bin's.
func command(cpus, bin string, args ...string) *exec.Cmd {
	cmd := exec.Command("taskset", append([]string{"-c", cpus, bin}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// proc is a daemon the benchmark started. Its standard error goes to a
// log file in the run directory.
type proc struct {
	name    string // the program, for messages
	cmd     *exec.Cmd
	log     string
	started time.Time
	exited  chan struct{} // closed once Wait returned
	waitErr error
}

// startProc starts the daemon bin on benchCPU.
func startProc(logPath string, bin string, args ...string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := command(benchCPU, bin, args...)
	cmd.Stderr = lf
	p := &proc{name: filepath.Base(bin), cmd: cmd, log: logPath, exited: make(chan struct{})}
	return p, p.start(lf)
}

// start launches the command and closes lf once the process has exited.
func (p *proc) start(lf *os.File) error {
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		lf.Close()
		return err
	}
	go func() {
		p.waitErr = p.cmd.Wait()
		lf.Close()
		close(p.exited)
	}()
	return nil
}

// logTail returns the last lines of the process log, for error reports.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 8 {
		lines = lines[len(lines)-8:]
	}
	return strings.Join(lines, "\n")
}

// waitHealthy polls url/v1/healthz until it answers 200 and returns the
// time since the process started. The body is ignored: while recovering
// a durable daemon answers 503 with {"status":"recovering"}.
func (p *proc) waitHealthy(url string, timeout time.Duration) (time.Duration, error) {
	c := &http.Client{Timeout: time.Second}
	deadline := p.started.Add(timeout)
	for {
		resp, err := c.Get(url + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(p.started), nil
			}
		}
		select {
		case <-p.exited:
			return 0, fmt.Errorf("%s exited before it was ready: %v\n%s", p.name, p.waitErr, p.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s not ready after %v\n%s", p.name, timeout, p.logTail())
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	return vmHWM(p.cmd.Process.Pid)
}

func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %v", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM, waits for a clean exit and checks its status; a
// process still running after the grace period is killed and reported.
func (p *proc) stop() error {
	select {
	case <-p.exited:
		return fmt.Errorf("%s exited early: %v\n%s", p.name, p.waitErr, p.logTail())
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.exited:
	case <-time.After(60 * time.Second):
		p.kill()
		return fmt.Errorf("%s ignored SIGTERM for 60s\n%s", p.name, p.logTail())
	}
	if p.waitErr != nil {
		return fmt.Errorf("%s exit: %v\n%s", p.name, p.waitErr, p.logTail())
	}
	return nil
}

// kill ends the process without ceremony and waits for it; for error
// paths only.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// killIfRunning kills the process unless it already exited: the
// deferred cleanup of a run that returned before stopping it.
func (p *proc) killIfRunning() {
	select {
	case <-p.exited:
	default:
		p.kill()
	}
}
