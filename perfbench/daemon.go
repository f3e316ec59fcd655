package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"hams/internal/api"
	"hams/internal/report"
)

// daemon is one running hamsd.
type daemon struct {
	cmd      *exec.Cmd
	base     string
	log      *os.File
	done     chan error
	stopOnce sync.Once
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

// startDaemon launches hamsd on a free loopback port and waits until
// /healthz answers.
func startDaemon(buildDir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStartDaemon(buildDir)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartDaemon(buildDir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(buildDir, "hamsd.log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(buildDir, "hamsd"))
	cmd.Env = append(os.Environ(),
		"HAMSD_ADDR="+addr,
		"HAMSD_WORKERS="+strconv.Itoa(svcConns),
		"HAMSD_STATS_PERIOD=1h",
		"HAMSD_DRAIN_TIMEOUT=5s",
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die without stopping the daemon, the kernel
	// kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting hamsd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			logf.Close()
			return nil, fmt.Errorf("hamsd exited during start-up: %v (see %s)", err, logf.Name())
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("hamsd did not become healthy on %s", addr)
}

// stop terminates the daemon gracefully (SIGTERM, then SIGKILL) and
// waits for it to exit; later calls do nothing.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
		d.log.Close()
	})
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// conn is one client connection to hamsd.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// upload POSTs a trace or checkpoint body and returns its ID.
func (c *conn) upload(path string, body []byte) (string, error) {
	resp, err := c.hc.Post(c.base+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST %s: %d: %s", path, resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &out); err != nil || out.ID == "" {
		return "", fmt.Errorf("POST %s: bad response %q", path, b)
	}
	return out.ID, nil
}

// submit POSTs a job; a non-202 answer is a refusal, not an error.
func (c *conn) submit(spec api.JobSpec) (st api.JobStatus, refusal string, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return st, "", err
	}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Sprintf("%d: %s", resp.StatusCode, bytes.TrimSpace(b)), nil
	}
	return st, "", json.Unmarshal(b, &st)
}

// cells streams a job's NDJSON cells to the end.
func (c *conn) cells(id string) ([]report.Cell, error) {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/cells")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cells: status %d", resp.StatusCode)
	}
	var out []report.Cell
	dec := json.NewDecoder(resp.Body)
	for {
		var cell report.Cell
		if err := dec.Decode(&cell); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, cell)
	}
}

func (c *conn) status(id string) (api.JobStatus, error) {
	var st api.JobStatus
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func (c *conn) scrape() error {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return err
}
