package main

import (
	"bufio"
	"bytes"
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

	"wcoj/cmd/wcojbench/workload"
)

// server is one wcojd child process and the HTTP client that drives
// it. Everything here goes through wcojd's flags and HTTP API only, so
// the end-to-end run survives any refactor that keeps those.
type server struct {
	bin  string
	args []string
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	http *http.Client
	done chan struct{} // closed when the stdout reader has seen EOF
}

// startServer execs wcojd and waits until /readyz answers 200. conns
// caps the connections the client keeps to it.
func startServer(bin string, args []string, conns int) (*server, error) {
	s := &server{bin: bin, args: args, done: make(chan struct{})}
	s.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = os.Stderr
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	// Start under the lock, so that a shutdown sweep either sees this
	// child or prevents it.
	children.Lock()
	if children.closed {
		children.Unlock()
		return nil, fmt.Errorf("shutting down")
	}
	err = s.cmd.Start()
	if err == nil {
		children.live[s] = struct{}{}
	}
	children.Unlock()
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	// wcojd prints "serving on ADDR (...)" once the listener is bound;
	// with port 0 that line is the only way to learn the address. The
	// reader keeps draining afterwards so the child never blocks on a
	// full pipe.
	addr := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "serving on "); ok {
				a, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- a:
				default:
				}
			}
		}
		io.Copy(io.Discard, out) // a line too long for the scanner must not wedge the child
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.done:
		s.reap()
		return nil, fmt.Errorf("%s exited before binding a listener", bin)
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, fmt.Errorf("%s did not bind a listener in 20 s", bin)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := s.http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			s.reap()
			return nil, fmt.Errorf("%s exited while loading", bin)
		default:
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("%s not ready after 60 s", bin)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill is kill -9: no drain, no WAL close. It returns once the child
// has been reaped.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.reap()
}

func (s *server) reap() {
	<-s.done
	s.cmd.Wait()
	s.http.CloseIdleConnections()
	children.Lock()
	delete(children.live, s)
	children.Unlock()
}

// restart kills the child and execs a successor over the same
// arguments (so the same -dir), returning it and the time from exec to
// /readyz 200.
func (s *server) restart(conns int) (*server, time.Duration, error) {
	s.kill()
	start := time.Now()
	ns, err := startServer(s.bin, s.args, conns)
	return ns, time.Since(start), err
}

// post sends one JSON request and decodes a 200 reply into out. It
// returns the client-observed latency and the reply size; any other
// status is an error carrying the server's message.
func (s *server) post(path string, body []byte, out any) (time.Duration, int, error) {
	start := time.Now()
	resp, err := s.http.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, len(data), err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, len(data), fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return lat, len(data), json.Unmarshal(data, out)
}

// getRaw returns the body of a 200 reply.
func (s *server) getRaw(path string) ([]byte, error) {
	resp, err := s.http.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// get decodes the JSON body of a 200 reply into out.
func (s *server) get(path string, out any) error {
	data, err := s.getRaw(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// query runs one class and returns the reply, latency and reply size.
func (s *server) query(c workload.Class) (*workload.Response, time.Duration, int, error) {
	var r workload.Response
	lat, n, err := s.post("/query", c.Body(), &r)
	return &r, lat, n, err
}

// updateReply is wcojd's POST /update reply.
type updateReply struct {
	Inserted    int    `json:"inserted"`
	Deleted     int    `json:"deleted"`
	InsertNoops int    `json:"insert_noops"`
	DeleteNoops int    `json:"delete_noops"`
	Epoch       uint64 `json:"epoch"`
}

func (s *server) update(body []byte) (updateReply, time.Duration, error) {
	var r updateReply
	lat, _, err := s.post("/update", body, &r)
	return r, lat, err
}

// dbStats is the part of GET /stats the benchmark reads (wcoj.DBStats
// has no JSON tags, so the keys are its field names).
type dbStats struct {
	Tuples, DeltaTuples      int
	TrieHits, TrieMisses     uint64
	PlanHits, PlanMisses     uint64
	Epoch, Compactions       uint64
	Inserted, Deleted        uint64
	MaterializedViews        int
	InsertNoops, DeleteNoops uint64
}

func (s *server) stats() (dbStats, error) {
	var st dbStats
	err := s.get("/stats", &st)
	return st, err
}

// rejected sums wcojd_rejected_total over its reasons from /metrics.
func (s *server) rejected() (float64, error) {
	raw, err := s.getRaw("/metrics")
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "wcojd_rejected_total{") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				v, err := strconv.ParseFloat(line[i+1:], 64)
				if err != nil {
					return 0, fmt.Errorf("metrics line %q: %w", line, err)
				}
				total += v
			}
		}
	}
	return total, nil
}

// clockTicks is USER_HZ; it is 100 on every Linux port Go supports.
const clockTicks = 100

// cpuSeconds is the child's utime+stime from /proc/<pid>/stat.
func (s *server) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	_, rest, _ := strings.Cut(string(data), ") ")
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicks
}

// peakRSSMB is the child's VmHWM from /proc/<pid>/status.
func (s *server) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// selfCPUSeconds is this process's own user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
