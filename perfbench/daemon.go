package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one progressd child process listening on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	err    error // the process exit status, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port. Another process
// may take it before the daemon binds; launch retries on that.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts bin with args plus a fresh loopback -addr and waits for
// its first 200 from /healthz. It returns the daemon and the time from
// process start to that answer. The daemon's stderr goes to ours, so its
// log stays with the run output.
func launch(ctx context.Context, bin string, args []string) (*daemon, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, fmt.Errorf("free port: %w", err)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		// The child dies with the generator even if the generator is killed.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, 0, fmt.Errorf("start %s: %w", bin, err)
		}
		d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
		go func() { d.err = cmd.Wait(); close(d.exited) }()
		ready, err := d.waitHealthy(ctx, 60*time.Second)
		if err == nil {
			return d, ready.Sub(start), nil
		}
		d.stop()
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, 0, fmt.Errorf("daemon never became healthy: %w", lastErr)
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// the timeout passes. It returns when the 200 arrived.
func (d *daemon) waitHealthy(ctx context.Context, timeout time.Duration) (time.Time, error) {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return time.Time{}, fmt.Errorf("daemon exited before healthy: %v", d.err)
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, errors.New("healthz timeout")
}

// vmHWMMiB reads the daemon's peak resident set from /proc. Call it
// before stop: the value is gone once the process is reaped.
func (d *daemon) vmHWMMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[2] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop terminates the daemon — SIGTERM, then SIGKILL after a grace
// period — and waits until the process is reaped. Safe to call twice.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}
