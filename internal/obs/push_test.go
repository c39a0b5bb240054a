package obs

import (
	"bufio"
	"math"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// udpSink is a scratch statsd listener: it collects every line from every
// datagram received on a loopback UDP socket, and each datagram's size.
type udpSink struct {
	pc    net.PacketConn
	mu    sync.Mutex
	got   []string
	sizes []int
	done  chan struct{}
}

func newUDPSink(t *testing.T) *udpSink {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen udp: %v", err)
	}
	s := &udpSink{pc: pc, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		buf := make([]byte, 64<<10)
		for {
			n, _, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			s.mu.Lock()
			s.sizes = append(s.sizes, n)
			for _, line := range strings.Split(strings.TrimRight(string(buf[:n]), "\n"), "\n") {
				if line != "" {
					s.got = append(s.got, line)
				}
			}
			s.mu.Unlock()
		}
	}()
	t.Cleanup(func() { pc.Close(); <-s.done })
	return s
}

func (s *udpSink) addr() string { return s.pc.LocalAddr().String() }

func (s *udpSink) lines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.got...)
}

// waitLines polls until the sink holds at least n lines.
func (s *udpSink) waitLines(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := s.lines(); len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d lines; have %v", n, s.lines())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newTestPusher(t *testing.T, cfg PushConfig) *Pusher {
	t.Helper()
	if cfg.Interval == 0 {
		cfg.Interval = time.Hour // tests drive Flush explicitly
	}
	p, err := NewPusher(cfg)
	if err != nil {
		t.Fatalf("NewPusher: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPushCounterDeltas(t *testing.T) {
	sink := newUDPSink(t)
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", "endpoint", "/v1/Simulate")
	p := newTestPusher(t, PushConfig{Addr: sink.addr(), Prefix: "parmmd", Registries: []*Registry{r}})

	c.Add(5)
	p.Flush()
	got := sink.waitLines(t, 1)
	if got[0] != "parmmd.reqs_total._v1_simulate:5|c" {
		t.Fatalf("first flush = %q", got[0])
	}
	// Buffered-counts model: the second flush carries only the interval's
	// increments, and a quiet counter is not re-sent at all.
	c.Add(3)
	p.Flush()
	got = sink.waitLines(t, 2)
	if got[1] != "parmmd.reqs_total._v1_simulate:3|c" {
		t.Fatalf("second flush = %q, want the delta 3", got[1])
	}
	p.Flush() // no increments → no line
	r.GaugeFunc("tick", "marker", func() float64 { return 1 })
	p.Flush() // proves the quiet flush sent nothing, without sleeping
	got = sink.waitLines(t, 3)
	for _, l := range got[2:] {
		if strings.Contains(l, "reqs_total") {
			t.Fatalf("quiet counter re-sent: %v", got)
		}
	}
}

func TestPushGaugeAbsolute(t *testing.T) {
	sink := newUDPSink(t)
	r := NewRegistry()
	v := 7.0
	r.GaugeFunc("inflight", "in-flight jobs", func() float64 { return v })
	p := newTestPusher(t, PushConfig{Addr: sink.addr(), Registries: []*Registry{r}})
	p.Flush()
	v = 2
	p.Flush()
	got := sink.waitLines(t, 2)
	if got[0] != "inflight:7|g" || got[1] != "inflight:2|g" {
		t.Fatalf("gauge flushes = %v", got)
	}
}

func TestPushFuncMetrics(t *testing.T) {
	sink := newUDPSink(t)
	r := NewRegistry()
	v := 10.0
	r.CounterFunc("mirror_total", "m", func() float64 { return v })
	r.GaugeFunc("entries", "e", func() float64 { return 3 })
	p := newTestPusher(t, PushConfig{Addr: sink.addr(), Registries: []*Registry{r}})
	p.Flush()
	v = 12.5
	p.Flush()
	got := sink.waitLines(t, 4)
	sort.Strings(got)
	want := []string{"entries:3|g", "entries:3|g", "mirror_total:10|c", "mirror_total:2.5|c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("func metric lines = %v, want %v", got, want)
		}
	}
}

func TestPushHistogramTimerPercentiles(t *testing.T) {
	sink := newUDPSink(t)
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 0.2, 0.4, 0.8})
	p := newTestPusher(t, PushConfig{Addr: sink.addr(), Registries: []*Registry{r}})
	// 100 observations uniform in (0, 0.1]: everything lands in the first
	// bucket, so interpolated percentiles are q*0.1.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.001)
	}
	p.Flush()
	got := sink.waitLines(t, 5)
	byKey := map[string]string{}
	for _, l := range got {
		k, v, _ := strings.Cut(l, ":")
		byKey[k] = v
	}
	if byKey["lat_seconds.count"] != "100|c" {
		t.Fatalf("count line = %q in %v", byKey["lat_seconds.count"], got)
	}
	sumStr, _, _ := strings.Cut(byKey["lat_seconds.sum"], "|")
	var sum float64
	if _, err := fmtSscan(sumStr, &sum); err != nil || math.Abs(sum-5.05) > 1e-9 {
		t.Fatalf("sum line = %q, want 5.05", byKey["lat_seconds.sum"])
	}
	for q, want := range map[string]float64{"p50": 0.05, "p90": 0.09, "p99": 0.099} {
		vs, _, _ := strings.Cut(byKey["lat_seconds."+q], "|")
		var v float64
		if _, err := fmtSscan(vs, &v); err != nil || math.Abs(v-want) > 1e-9 {
			t.Fatalf("%s = %q, want %v", q, byKey["lat_seconds."+q], want)
		}
	}
	// Second interval: 10 slow observations only; percentiles reflect the
	// interval's deltas, not the lifetime distribution.
	for i := 0; i < 10; i++ {
		h.Observe(0.3)
	}
	p.Flush()
	got = sink.waitLines(t, 10)
	byKey = map[string]string{}
	for _, l := range got[5:] {
		k, v, _ := strings.Cut(l, ":")
		byKey[k] = v
	}
	if byKey["lat_seconds.count"] != "10|c" {
		t.Fatalf("interval count = %q in %v", byKey["lat_seconds.count"], got[5:])
	}
	vs, _, _ := strings.Cut(byKey["lat_seconds.p50"], "|")
	var p50 float64
	fmtSscan(vs, &p50)
	// All 10 fell in (0.2, 0.4]; the interpolated median is 0.3.
	if math.Abs(p50-0.3) > 1e-9 {
		t.Fatalf("interval p50 = %q, want 0.3", byKey["lat_seconds.p50"])
	}
}

func TestPushTCPSink(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	lines := make(chan string, 16)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	r := NewRegistry()
	r.Counter("t_total", "t").Add(9)
	p := newTestPusher(t, PushConfig{Addr: "tcp://" + ln.Addr().String(), Registries: []*Registry{r}})
	p.Flush()
	select {
	case l := <-lines:
		if l != "t_total:9|c" {
			t.Fatalf("tcp line = %q", l)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no line over tcp")
	}
}

func TestPushUDPPacketBatching(t *testing.T) {
	sink := newUDPSink(t)
	r := NewRegistry()
	// Enough distinct gauges (about 30 bytes of line each) that one
	// datagram cannot hold them under the 1400-byte cap; every line must
	// still arrive, in datagrams no larger than the cap.
	const n = 150
	for i := 0; i < n; i++ {
		v := float64(i)
		r.GaugeFunc("g", "g", func() float64 { return v }, "idx", strings.Repeat("x", 20)+strconv.Itoa(i))
	}
	p := newTestPusher(t, PushConfig{Addr: sink.addr(), Registries: []*Registry{r}})
	p.Flush()
	if got := sink.waitLines(t, n); len(got) != n {
		t.Fatalf("got %d lines, want %d", len(got), n)
	}
	sink.mu.Lock()
	sizes := append([]int(nil), sink.sizes...)
	sink.mu.Unlock()
	if len(sizes) < 2 {
		t.Fatalf("%d lines arrived in %d datagram(s), want them split", n, len(sizes))
	}
	for _, sz := range sizes {
		if sz > maxPacket {
			t.Fatalf("datagram of %d bytes exceeds the %d-byte cap", sz, maxPacket)
		}
	}
}

func TestPushIntervalLoop(t *testing.T) {
	// The ticker loop flushes without explicit Flush calls.
	sink := newUDPSink(t)
	r := NewRegistry()
	r.Counter("loop_total", "l").Inc()
	p, err := NewPusher(PushConfig{Addr: sink.addr(), Interval: 5 * time.Millisecond, Registries: []*Registry{r}})
	if err != nil {
		t.Fatalf("NewPusher: %v", err)
	}
	defer p.Close()
	got := sink.waitLines(t, 1)
	if got[0] != "loop_total:1|c" {
		t.Fatalf("ticker flush = %q", got[0])
	}
}

func TestPushCloseFlushes(t *testing.T) {
	sink := newUDPSink(t)
	r := NewRegistry()
	c := r.Counter("fin_total", "f")
	p, err := NewPusher(PushConfig{Addr: sink.addr(), Interval: time.Hour, Registries: []*Registry{r}})
	if err != nil {
		t.Fatalf("NewPusher: %v", err)
	}
	c.Add(4)
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := sink.waitLines(t, 1)
	if got[0] != "fin_total:4|c" {
		t.Fatalf("final flush = %q", got[0])
	}
}

func TestPushToleratesDeadSink(t *testing.T) {
	// A UDP sink that nobody listens on must not error the pusher into a
	// crash — sends are fire-and-forget.
	r := NewRegistry()
	r.Counter("dead_total", "d").Inc()
	p, err := NewPusher(PushConfig{Addr: "udp://127.0.0.1:9", Interval: time.Hour, Registries: []*Registry{r}})
	if err != nil {
		t.Fatalf("NewPusher to dead sink: %v", err)
	}
	p.Flush()
	p.Close()
}

func TestPushBadAddr(t *testing.T) {
	if _, err := NewPusher(PushConfig{Addr: ""}); err == nil {
		t.Fatal("empty addr must error")
	}
	if _, err := NewPusher(PushConfig{Addr: "tcp://127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable tcp sink must surface the dial error")
	}
}

// TestUpdateAllocsWithPusherActive extends the zero-allocation pin to the
// push-enabled configuration: a live Pusher gathers on its own goroutine
// and must leave the mutator hot path allocation-free.
func TestUpdateAllocsWithPusherActive(t *testing.T) {
	sink := newUDPSink(t)
	r := NewRegistry()
	c := r.Counter("pac_total", "c")
	s := r.Striped("pas_total", "s")
	h := r.Histogram("pah_seconds", "h", nil)
	p, err := NewPusher(PushConfig{Addr: sink.addr(), Interval: time.Millisecond, Registries: []*Registry{r}})
	if err != nil {
		t.Fatalf("NewPusher: %v", err)
	}
	defer p.Close()
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		s.Add(17, 5)
		h.Observe(0.012)
	}); n != 0 {
		t.Fatalf("mutators allocate %.1f allocs/op with pusher active, want 0", n)
	}
}

// fmtSscan parses a float rendered by formatStatsd.
func fmtSscan(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	*out = v
	return 1, nil
}
