package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process (udmserve or udmproxy) the benchmark
// started. Its stderr goes to a log file; the listen address is read
// from the "listening on" line, so every server binds port 0 and no
// two runs can collide on a port.
type proc struct {
	name   string
	cmd    *exec.Cmd
	url    string
	logf   *os.File
	exited chan struct{} // closed once the process has been reaped
}

// addrWriter copies a server's stderr to its log file and reports the
// address of the first "listening on <addr>" line.
type addrWriter struct {
	f    *os.File
	addr chan string // buffered for the one address sent

	line []byte
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if !w.sent {
		w.line = append(w.line, p...)
		for !w.sent {
			i := bytes.IndexByte(w.line, '\n')
			if i < 0 {
				break
			}
			l := string(w.line[:i])
			w.line = w.line[i+1:]
			if _, rest, ok := strings.Cut(l, "listening on "); ok {
				w.addr <- strings.Fields(rest)[0]
				w.sent, w.line = true, nil
			}
		}
	}
	return w.f.Write(p)
}

// start launches bin with args, logging to dir/name.log, and returns
// once the process has printed its listen address.
func start(ctx context.Context, bin, dir, name string, args ...string) (*proc, error) {
	f, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	w := &addrWriter{f: f, addr: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = w
	// The servers must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, logf: f, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.exited)
	}()
	select {
	case a := <-w.addr:
		p.url = "http://" + a
		return p, nil
	case <-p.exited:
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	p.stop()
	return nil, fmt.Errorf("%s did not start; see %s", name, f.Name())
}

// stop sends SIGTERM (the servers drain and checkpoint), waits up to
// 30 s, then kills. It returns once the process has been reaped.
func (p *proc) stop() {
	select {
	case <-p.exited:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.exited:
		case <-time.After(30 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.exited
		}
	}
	p.logf.Close()
}

// hwmMiB reads the process's peak resident set size (VmHWM) in MiB.
func (p *proc) hwmMiB() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", p.name)
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(ctx context.Context, c *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz never answered 200", url)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// scrape reads a JSON /metrics document into a flat map of its numeric
// keys.
func scrape(c *http.Client, url string) (counters, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("%s/metrics: %w", url, err)
	}
	out := counters{}
	for k, v := range doc {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// call sends one request and returns the status, headers and body.
func call(c *http.Client, method, url string, body []byte, hdr http.Header) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, b, nil
}

// getJSON GETs url and decodes a 200 answer into out.
func getJSON(c *http.Client, url string, out any) error {
	status, _, b, err := call(c, http.MethodGet, url, nil, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, status, b)
	}
	return json.Unmarshal(b, out)
}

// cpuTicks is the machine's CPU time from /proc/stat: the ticks the
// hypervisor gave to other guests (steal) and all ticks.
type cpuTicks struct{ steal, total float64 }

func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var t cpuTicks
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of the machine's CPU time stolen between a and
// b, in percent.
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * (b.steal - a.steal) / (b.total - a.total)
}
