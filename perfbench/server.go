package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// server is one running iqserver process and a client bound to it.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	done   chan struct{} // closed once the process has exited
	log    *os.File
}

// startServer launches the iqserver binary on an ephemeral loopback port and
// waits until its "listening" log line names the address. conns bounds the
// client's connection pool: the load generator never opens more. With cpu
// >= 0 the server runs bound to that one CPU.
func startServer(bin, logPath string, conns, cpu int, extra ...string) (*server, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	// The server dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening server log: %w", err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd.Stdout = logf
	start := cmd.Start
	if cpu >= 0 {
		start = func() error { return startPinned(cpu, cmd.Start) }
	}
	if err := start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting iqserver: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{}), log: logf}
	addrc := make(chan string, 1)
	go func() {
		// The server logs JSON lines to stderr; the first "listening" line
		// names the bound address. Everything is copied to the log file.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Bytes()
			logf.Write(line)
			logf.Write([]byte{'\n'})
			if !sent && bytes.Contains(line, []byte(`"msg":"listening"`)) {
				var rec struct {
					Addr string `json:"addr"`
				}
				if json.Unmarshal(line, &rec) == nil && rec.Addr != "" {
					addrc <- rec.Addr
					sent = true
				}
			}
		}
		cmd.Wait()
		close(s.done)
	}()
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
	case <-s.done:
		logf.Close()
		return nil, errors.New("iqserver exited before listening; see " + logPath)
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, errors.New("iqserver did not report its address within 20s")
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return s, nil
}

// kill sends SIGKILL and waits for the process to exit.
func (s *server) kill() {
	if s == nil || s.cmd.Process == nil {
		return
	}
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.log.Close()
}

// procStatus reads one kB field of the server's /proc status, in MiB:
// VmRSS is its resident set size now, VmHWM the peak so far.
func (s *server) procStatus(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// cpuTime is the CPU time in seconds every thread of the server has run so
// far, from /proc/<pid>/task/*/schedstat.
func (s *server) cpuTime() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue
		}
		var run float64
		if _, err := fmt.Sscanf(string(b), "%f", &run); err == nil {
			ns += run
		}
	}
	if ns == 0 {
		return 0, fmt.Errorf("no CPU time in %s/*/schedstat", dir)
	}
	return ns / 1e9, nil
}

// sampleRSS reads the server's VmRSS every interval until stop is closed,
// then sends the samples.
func (s *server) sampleRSS(interval time.Duration, stop <-chan struct{}) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var xs []float64
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			if v, err := s.procStatus("VmRSS"); err == nil {
				xs = append(xs, v)
			}
			select {
			case <-stop:
				out <- xs
				return
			case <-t.C:
			}
		}
	}()
	return out
}

// do sends one request and returns the status and body.
func (s *server) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// call sends a JSON request, requires a 200 and decodes the reply into out.
func (s *server) call(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	code, b, err := s.do(context.Background(), method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, code, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		code, _, err := s.do(context.Background(), http.MethodGet, "/readyz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/readyz not 200 within %v (last status %d, err %v)", timeout, code, err)
		}
		select {
		case <-s.done:
			return errors.New("iqserver exited while waiting for /readyz")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// scrape fetches /metrics.
func (s *server) scrape() (metricSet, error) {
	code, b, err := s.do(context.Background(), http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return parseMetrics(b), nil
}
