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
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// server is parmmd served in-process on a loopback listener, with the
// client the load comes from. The client holds at most runtime.NumCPU()
// connections, so load never comes from more connections than cores.
type server struct {
	svc    *service.Server
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	base   string
	client *http.Client
}

// startServer builds a parmmd with the serving levers cmd/loadgen uses.
func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc: service.New(service.Config{
			CacheSize:       1 << 16,
			PlanInlineLimit: 8192, // 5000-point plans answer inline unless the body asks to stream
		}),
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
	}
	s.hs = &http.Server{Handler: s.svc.Handler()}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	conns := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return s, nil
}

// close stops serving and drains the job pool.
func (s *server) close() {
	_ = s.hs.Close()
	<-s.served
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.svc.Shutdown(ctx) // jobs still running after the deadline are cancelled
	s.client.CloseIdleConnections()
}

// do sends one request and returns the status and the whole response body.
func (s *server) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
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
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read %s: %w", path, err)
	}
	return resp.StatusCode, out, nil
}

// post sends a JSON body and fails unless the answer has status want.
func (s *server) post(ctx context.Context, path string, body []byte, want int) ([]byte, error) {
	status, out, err := s.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return nil, err
	}
	if status != want {
		return nil, fmt.Errorf("POST %s: status %d, want %d: %s", path, status, want, firstLine(out))
	}
	return out, nil
}

// firstLine returns at most the first line of an error body, for messages.
func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	if len(line) > 200 {
		line = line[:200]
	}
	return string(line)
}

// counterNames are the /metrics counters the traced run takes deltas of.
var counterNames = []string{
	"service_cache_hits_total",
	"service_cache_misses_total",
	"service_cache_shared_total",
	"service_overloads_total",
}

// counters scrapes the unlabelled counters in counterNames from /metrics.
func (s *server) counters(ctx context.Context) (map[string]float64, error) {
	status, body, err := s.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	want := make(map[string]bool, len(counterNames))
	for _, n := range counterNames {
		want[n] = true
	}
	out := make(map[string]float64, len(counterNames))
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || !want[f[0]] {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", f[0], err)
		}
		out[f[0]] = v
	}
	if len(out) != len(counterNames) {
		return nil, errors.New("GET /metrics: missing service counters")
	}
	return out, nil
}
