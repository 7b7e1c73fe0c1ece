package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// readyTimeout bounds a cncd spawn: load, boot count and WAL replay of a
// profile-scale graph take well under a second.
const readyTimeout = 60 * time.Second

// requestTimeout bounds one HTTP request; a full recount of the serve
// graph takes tens of milliseconds.
const requestTimeout = 30 * time.Second

// daemon is one cncd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// done is closed when the child's stdout reaches EOF, i.e. the child
	// has exited.
	done    chan struct{}
	logFile *os.File
	logPath string
	once    sync.Once
}

// children are the daemons a run started, so an interrupted run can stop
// them. A nil *children tracks nothing.
type children struct {
	mu sync.Mutex
	ds []*daemon
}

func (c *children) add(d *daemon) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ds = append(c.ds, d)
	c.mu.Unlock()
}

func (c *children) stopAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, d := range c.ds {
		d.stop()
	}
}

// startDaemon spawns cncd with args, which name a WAL, and waits until it
// serves: its ready line, the WAL replay banner and the update path being
// installed. It returns the daemon and the spawn-to-ready time.
func startDaemon(bin string, args []string, logPath string, kids *children) (*daemon, time.Duration, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logFile.Close()
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, 0, fmt.Errorf("start cncd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), logFile: logFile, logPath: logPath}
	kids.add(d)
	ready := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		addr, sent := "", false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "cncd listening on "); ok {
				addr = a
			}
			if !sent && addr != "" && strings.HasPrefix(line, "cncd wal replayed:") {
				ready <- addr
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, fmt.Errorf("%w; cncd log: %s", err, d.logTail())
	}
	select {
	case d.addr = <-ready:
	case <-d.done:
		return fail(errors.New("cncd exited before it was ready"))
	case <-time.After(readyTimeout):
		return fail(fmt.Errorf("cncd not ready after %v", readyTimeout))
	}
	// The banner precedes installing the ingester by one WAL open; an
	// update sent in between would get 503.
	c := newClient(d.addr)
	defer c.close()
	for {
		var info infoBody
		if err := c.getJSON("/v1/info", &info); err != nil {
			return fail(err)
		}
		if info.Ingest != nil {
			break
		}
		if time.Since(t0) > readyTimeout {
			return fail(errors.New("cncd update path not installed"))
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(t0), nil
}

// stop kills the child and waits for it to exit. It may be called again.
func (d *daemon) stop() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		<-d.done
		d.cmd.Wait() // the child was killed; its exit status says only that
		d.logFile.Close()
	})
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.logPath)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// client is one keep-alive HTTP connection to the daemon.
type client struct {
	hc   *http.Client
	base string
}

func newClient(addr string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, base: "http://" + addr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req and reads the whole body, so the connection is reused.
func (c *client) do(req *http.Request) (*http.Response, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, err
}

func (c *client) get(path string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	return c.do(req)
}

// getJSON fetches path and decodes a 200 response into v.
func (c *client) getJSON(path string, v any) error {
	resp, body, err := c.get(path)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return json.Unmarshal(body, v)
}

// infoBody is the part of /v1/info the benchmark reads.
type infoBody struct {
	Ingest *struct {
		Triangles uint64 `json:"triangles"`
	} `json:"ingest"`
}

// redSums scrapes the daemon's /metrics and returns, per endpoint, the
// summed duration (seconds) and count of cncd_request_duration_seconds.
func redSums(c *client) (map[string][2]float64, error) {
	resp, body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	sums := map[string][2]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		var idx int
		switch {
		case strings.HasPrefix(line, "cncd_request_duration_seconds_sum{"):
			idx = 0
		case strings.HasPrefix(line, "cncd_request_duration_seconds_count{"):
			idx = 1
		default:
			continue
		}
		_, rest, _ := strings.Cut(line, `endpoint="`)
		endpoint, _, _ := strings.Cut(rest, `"`)
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", line, err)
		}
		s := sums[endpoint]
		s[idx] += v
		sums[endpoint] = s
	}
	return sums, nil
}

// heapInuse reads the daemon's HeapInuse after a forced GC from its heap
// profile's runtime.MemStats trailer.
func heapInuse(c *client) (float64, error) {
	resp, body, err := c.get("/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET heap profile: %s", resp.Status)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# HeapInuse = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("heap profile has no HeapInuse line")
}
