package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// recordd is one running daemon under test.
type recordd struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	store  string // artifact store directory
	stderr bytes.Buffer
	done   chan struct{} // closed once the process has been waited for
}

var listenRE = regexp.MustCompile(`listening on (\S+) `)

// addrWriter takes recordd's stdout and hands over the listen address from
// its startup line.
type addrWriter struct {
	mu   sync.Mutex
	buf  []byte
	addr chan string // buffered 1; receives once
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf != nil {
		w.buf = append(w.buf, p...)
		if m := listenRE.FindSubmatch(w.buf); m != nil {
			w.addr <- string(m[1])
			w.buf = nil
		}
	}
	return len(p), nil
}

// startRecordd execs the daemon with the benchmark's fixed service shape
// (2 workers, 64 queued waiters) on an ephemeral port and waits until it
// answers /healthz.
func startRecordd(bin, store string, cacheSize int) (*recordd, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", "2", "-max-queue", "64", "-cache-dir", store}
	if cacheSize > 0 {
		args = append(args, "-cache-size", strconv.Itoa(cacheSize))
	}
	out := &addrWriter{buf: []byte{}, addr: make(chan string, 1)}
	r := &recordd{cmd: exec.Command(bin, args...), store: store, done: make(chan struct{})}
	r.cmd.Stdout = out
	r.cmd.Stderr = &r.stderr
	if err := r.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start recordd: %w", err)
	}
	go func() {
		_ = r.cmd.Wait() // the exit status of a stopped daemon carries nothing
		close(r.done)
	}()
	select {
	case addr := <-out.addr:
		r.base = "http://" + addr
	case <-r.done:
		return nil, fmt.Errorf("recordd exited before listening: %s", r.stderr.String())
	case <-time.After(30 * time.Second):
		r.stop()
		return nil, fmt.Errorf("recordd did not report a listen address within 30s")
	}
	if err := r.healthz(); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

func (r *recordd) healthz() error {
	resp, err := http.Get(r.base + "/healthz")
	if err != nil {
		return fmt.Errorf("recordd healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("recordd healthz: status %d", resp.StatusCode)
	}
	return nil
}

// stop drains the daemon with SIGTERM, kills it if it has not exited after
// 10 s, and returns once the process is gone.
func (r *recordd) stop() {
	_ = r.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		_ = r.cmd.Process.Kill()
		<-r.done
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (r *recordd) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", r.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15, in clock ticks of 1/100 s.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS returns the daemon's resident-set high-water mark (VmHWM) in MB.
func (r *recordd) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", r.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", sc.Text())
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape is one /metrics snapshot: series (name plus label set, as
// printed) to value.
type scrape map[string]float64

func (r *recordd) metrics(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	s := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: bad sample %q", line)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// sum adds every series of the named metric whose labels contain all of
// the given name="value" pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range s {
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(series, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is the change of a summed metric between two scrapes.
func delta(from, to scrape, name string, labels ...string) float64 {
	return to.sum(name, labels...) - from.sum(name, labels...)
}
