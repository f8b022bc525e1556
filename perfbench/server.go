package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// target is one running cmd/serve process: the API listener, the debug
// listener (pprof and MemStats), and the client the workloads share.
type target struct {
	cmd   *exec.Cmd
	base  string
	debug string
	http  *http.Client
	done  chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launch starts bin with production defaults plus the two listen
// addresses. The server writes one wide event per request to stderr;
// stdout and stderr go to the null device so a full pipe can never
// block it.
func launch(bin string, conns int) (*target, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	dbg, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-debug-addr", dbg)
	cmd.Stdout, cmd.Stderr = nil, nil
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &target{
		cmd:   cmd,
		base:  "http://" + addr,
		debug: "http://" + dbg,
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns + 2,
			MaxConnsPerHost:     conns + 2,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		}},
		done: make(chan error, 1),
	}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// stop asks the server to drain (SIGTERM), kills it if it has not
// exited after the grace period, and waits for the process to end.
func (s *target) stop() {
	s.http.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// waitReady polls /readyz until the server answers 200.
func (s *target) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		if st, _, err := s.do(ctx, "GET", s.base+"/readyz", nil, &buf); err == nil && st == http.StatusOK {
			return nil
		}
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("server exited before ready: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return errors.New("server not ready within 60s")
}

// waitDatasetsReady polls /readyz until every dataset reports "ready",
// so no background warmup spills into the timed phase.
func (s *target) waitDatasetsReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		st, _, err := s.do(ctx, "GET", s.base+"/readyz", nil, &buf)
		if err != nil {
			return err
		}
		if st == http.StatusOK && !bytes.Contains(buf.Bytes(), []byte(`"warming"`)) &&
			!bytes.Contains(buf.Bytes(), []byte(`"starting"`)) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
	return errors.New("datasets not ready within 60s")
}

// do sends one request and reads the whole response body into buf. It
// returns the status and the X-Trace header.
func (s *target) do(ctx context.Context, method, url string, body []byte, buf *bytes.Buffer) (int, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Trace"), nil
}

// get fetches url and fails on a non-200 answer.
func (s *target) get(ctx context.Context, url string) ([]byte, error) {
	var buf bytes.Buffer
	st, _, err := s.do(ctx, "GET", url, nil, &buf)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, st)
	}
	return buf.Bytes(), nil
}

// cpuTicks reads the server's user+system CPU time from /proc/<pid>/stat
// in clock ticks (USER_HZ, 100 per second on Linux).
func (s *target) cpuTicks() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat cpu fields")
	}
	return utime + stime, nil
}

// gomaxprocs reports the server's default GOMAXPROCS: with the
// GOMAXPROCS variable unset, the Go runtime uses the number of CPUs in
// the process's affinity mask, which /proc/<pid>/status lists.
func (s *target) gomaxprocs() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Cpus_allowed_list:") {
			continue
		}
		n := 0
		for _, part := range strings.Split(strings.TrimSpace(strings.TrimPrefix(line, "Cpus_allowed_list:")), ",") {
			lo, hi, ok := strings.Cut(part, "-")
			a, _ := strconv.Atoi(lo)
			b := a
			if ok {
				b, _ = strconv.Atoi(hi)
			}
			n += b - a + 1
		}
		return n
	}
	return 0
}

// hostCPU is the first line of /proc/stat: cumulative ticks per state
// across every CPU of the host as this guest sees it.
type hostCPU struct{ total, steal float64 }

func readHostCPU() (hostCPU, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var h hostCPU
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return hostCPU{}, err
		}
		if i >= 8 { // guest and guest_nice are already counted in user and nice
			break
		}
		h.total += x
		if i == 7 {
			h.steal = x
		}
	}
	return h, nil
}

// stealPct is the share of CPU time the hypervisor withheld between
// two readings.
func stealPct(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}
