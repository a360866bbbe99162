package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"dcsprint/internal/telemetry"
)

// daemon is one dcsprintd child process listening on a loopback port the
// kernel picked.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	pid  int
	http *http.Client
	done chan struct{} // closed once stdout is drained
}

// startDaemon launches bin with args plus a loopback listener and returns
// once /healthz answers.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dcsprintd: %w", err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, done: make(chan struct{}),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "dcsprintd listening on "); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
		}
		io.Copy(io.Discard, out) //nolint:errcheck // drain past an over-long line
	}()
	fail := func(err error) (*daemon, error) {
		d.kill()
		return nil, err
	}
	select {
	case d.base = <-addr:
	case <-d.done:
		return fail(fmt.Errorf("dcsprintd exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(fmt.Errorf("dcsprintd did not report its listener"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := d.http.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("dcsprintd not healthy: %v", err))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit (killing it
// after a grace period), so any -span-out file is complete on return.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.kill()
	}
	waited := make(chan error, 1)
	go func() {
		<-d.done
		waited <- d.cmd.Wait()
	}()
	select {
	case err := <-waited:
		d.http.CloseIdleConnections()
		return err
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // reaped below
		<-waited
		return fmt.Errorf("dcsprintd did not drain within 60s")
	}
}

// kill ends the daemon without a drain and reaps it.
func (d *daemon) kill() error {
	d.cmd.Process.Kill() //nolint:errcheck // an exited process is fine
	<-d.done
	d.cmd.Wait() //nolint:errcheck // killed on purpose
	d.http.CloseIdleConnections()
	return nil
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, nil
}

// metrics scrapes /metrics into name -> value, summing label sets.
func (d *daemon) metrics() (map[string]float64, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	samples, err := telemetry.ParsePrometheus(strings.NewReader(string(b)))
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, s := range samples {
		out[s.Name] += s.Value
	}
	return out, nil
}

// liveHeap forces collections through the heap profile endpoint, then
// reads the heap gauge the next scrape refreshes. It collects twice: a
// sync.Pool keeps its contents through one collection, and the pooled
// encode buffers of multi-megabyte responses are no session's memory.
func (d *daemon) liveHeap() (float64, error) {
	for i := 0; i < 2; i++ {
		if _, err := d.get("/debug/pprof/heap?gc=1"); err != nil {
			return 0, err
		}
	}
	m, err := d.metrics()
	if err != nil {
		return 0, err
	}
	v, ok := m["dcsprint_runtime_heap_alloc_bytes"]
	if !ok {
		return 0, fmt.Errorf("/metrics has no dcsprint_runtime_heap_alloc_bytes")
	}
	return v, nil
}
