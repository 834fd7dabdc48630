package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB; pid
// "self" reads this process.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/%s/status", pid)
}

// freeAddr returns a loopback address with a port that was free a
// moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// daemon is one coemud child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	err    error
	log    *os.File
}

// startDaemon execs coemud with args plus its listen flag (-addr, or
// -domain-serve when domainServe), logging to logPath.
func startDaemon(bin string, domainServe bool, args []string, logPath string) (*daemon, error) {
	if bin == "" {
		return nil, fmt.Errorf("no coemud binary given (-coemud)")
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	flagName := "-addr"
	if domainServe {
		flagName = "-domain-serve"
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{flagName, addr}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, exited: make(chan struct{}), log: logf}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls ready until it succeeds, the daemon exits, or the
// timeout passes.
func (d *daemon) waitReady(timeout time.Duration, ready func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := ready()
		if err == nil {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("coemud exited before it was ready: %v (log: %s)", d.err, d.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coemud not ready after %v: %w", timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited within 10 s. It returns once the process
// has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill() // already past the graceful deadline
		<-d.exited
	}
	d.log.Close()
}

// daemonSetupReps is how many times a daemon workload repeats its
// set-up; setup_s is the median.
const daemonSetupReps = 15

// startRepeated is a daemon set-up repeated daemonSetupReps times: exec coemud
// and poll ready until it succeeds. It returns the last daemon, still
// running, and the median set-up time.
func startRepeated(rc *runConfig, domainServe bool, args []string, ready func(*daemon) error) (*daemon, float64, error) {
	var times []float64
	for r := 0; ; r++ {
		t0 := time.Now()
		d, err := startDaemon(rc.coemud, domainServe, args, filepath.Join(rc.dir, "coemud.log"))
		if err != nil {
			return nil, 0, err
		}
		err = d.waitReady(20*time.Second, func() error { return ready(d) })
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		if r == daemonSetupReps-1 {
			return d, median(times), nil
		}
		d.stop()
	}
}
