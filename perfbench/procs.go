package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// proc is one binary under test, started by the benchmark and always
// stopped (and waited for) before the benchmark exits.
type proc struct {
	name string
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{}
}

var (
	procsMu sync.Mutex
	procs   []*proc
)

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startProc launches bin with args plus -addr on a fresh port, logging
// its output to logDir/name.log.
func startProc(bin, name, logDir string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	lf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The child dies with the benchmark even if the benchmark is killed
	// before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, base: "http://" + addr, log: lf, done: make(chan struct{})}
	go func() { cmd.Wait(); close(p.done) }()
	procsMu.Lock()
	procs = append(procs, p)
	procsMu.Unlock()
	return p, nil
}

// stop sends SIGTERM, escalating to SIGKILL after a grace period, and
// waits for the process to exit.
func (p *proc) stop() {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
	procsMu.Lock()
	for i, q := range procs {
		if q == p {
			procs = append(procs[:i], procs[i+1:]...)
			break
		}
	}
	procsMu.Unlock()
}

// stopAll stops every process still running.
func stopAll() {
	procsMu.Lock()
	ps := append([]*proc(nil), procs...)
	procsMu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// waitReady polls /readyz until it answers 200, the process exits, or
// the timeout passes.
func (p *proc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before ready (see %s)", p.name, p.log.Name())
		default:
		}
		resp, err := c.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v", p.name, timeout)
}

// newClient returns an HTTP client limited to conns keep-alive
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// getJSON decodes a GET reply into v.
func getJSON(c *http.Client, url string, v interface{}) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// classify maps an HTTP reply onto the phase outcome.
func classify(status int, err error) outcome {
	switch {
	case err != nil:
		return outcomeFailed
	case status == http.StatusTooManyRequests:
		return outcomeShed
	case status != http.StatusOK:
		return outcomeFailed
	}
	return outcomeOK
}
