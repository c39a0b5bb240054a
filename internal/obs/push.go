package obs

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file is the push half of the observability layer: a Pusher
// periodically gathers every registry metric and emits statsd lines to a
// UDP or TCP sink. It follows the buffered-counts flush model — counters
// ship the delta since the previous flush (`|c`), gauges ship their
// current value (`|g`), and histograms ship interval count/sum deltas
// plus percentile gauges interpolated from the interval's bucket deltas.
//
// The pull path's zero-overhead contract is untouched: the hot-path
// mutators never see the pusher; it reads the same atomics a /metrics
// scrape reads, on its own goroutine, on its own interval.

// sample is one child metric captured at gather time.
type sample struct {
	name string
	kv   []string // raw label key/value pairs as registered
	kind metricKind
	val  float64       // counter/gauge value; unused for histograms
	hist *histSnapshot // non-nil only for histograms
}

// histSnapshot is a histogram read at one instant: non-cumulative
// per-bucket counts (the +Inf bucket last), plus sum and count.
type histSnapshot struct {
	bounds []float64
	counts []uint64 // len(bounds)+1
	sum    float64
	count  uint64
}

// gather reads every metric in the registry into samples. Like a scrape,
// it races in-flight updates benignly: each atomic is read once.
func (r *Registry) gather() []sample {
	var out []sample
	for _, f := range r.snapshot() {
		for _, c := range f.children {
			s := sample{name: f.name, kv: c.kv, kind: f.kind}
			switch m := c.metric.(type) {
			case *Counter:
				s.val = float64(m.Value())
			case *Striped:
				s.val = float64(m.Value())
			case func() float64:
				s.val = m()
			case *Histogram:
				hs := &histSnapshot{
					bounds: m.bounds,
					counts: make([]uint64, len(m.counts)),
					sum:    m.Sum(),
					count:  m.Count(),
				}
				for i := range m.counts {
					hs.counts[i] = m.counts[i].Load()
				}
				s.hist = hs
			default:
				continue
			}
			out = append(out, s)
		}
	}
	return out
}

// PushConfig configures a Pusher.
type PushConfig struct {
	// Addr is the sink address: "udp://host:port", "tcp://host:port", or a
	// bare "host:port" (UDP). Required.
	Addr string
	// Interval between flushes; 10s if zero.
	Interval time.Duration
	// Prefix is prepended to every statsd key (a trailing "." is added if
	// missing). Optional.
	Prefix string
	// Registries to gather from; default is just obs.Default.
	Registries []*Registry
}

// pushQuantiles are the percentile gauges emitted per histogram: p50, p90
// and p99.
var pushQuantiles = [...]float64{0.5, 0.9, 0.99}

// maxPacket caps one UDP datagram's payload, safe under typical 1500-byte
// MTUs. TCP ignores it.
const maxPacket = 1400

// prevEntry is the per-metric state from the previous flush, keyed by
// statsd key, used to turn cumulative counters into interval deltas.
type prevEntry struct {
	val    float64
	counts []uint64
	sum    float64
	count  uint64
}

// Pusher emits registry metrics to a statsd sink on an interval. Create
// with NewPusher; stop with Close. Flush is exported so tests (and
// shutdown paths) can force a deterministic flush.
type Pusher struct {
	cfg    PushConfig
	conn   net.Conn
	udp    bool
	mu     sync.Mutex // serializes Flush; guards prev
	prev   map[string]prevEntry
	ticker *time.Ticker
	stop   chan struct{}
	done   chan struct{}
}

// NewPusher dials the sink and starts the flush loop. Dial errors are
// returned. Send errors after that are dropped, and the failed write's
// lines with them, counter deltas included: metrics export must not take
// the service down with it.
func NewPusher(cfg PushConfig) (*Pusher, error) {
	network, addr := "udp", cfg.Addr
	if s, ok := strings.CutPrefix(cfg.Addr, "udp://"); ok {
		network, addr = "udp", s
	} else if s, ok := strings.CutPrefix(cfg.Addr, "tcp://"); ok {
		network, addr = "tcp", s
	}
	if addr == "" {
		return nil, fmt.Errorf("obs: push: empty sink address")
	}
	conn, err := net.DialTimeout(network, addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("obs: push: dial %s %s: %w", network, addr, err)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.Prefix != "" && !strings.HasSuffix(cfg.Prefix, ".") {
		cfg.Prefix += "."
	}
	if len(cfg.Registries) == 0 {
		cfg.Registries = []*Registry{Default}
	}
	p := &Pusher{
		cfg:    cfg,
		conn:   conn,
		udp:    network == "udp",
		prev:   map[string]prevEntry{},
		ticker: time.NewTicker(cfg.Interval),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go p.loop()
	return p, nil
}

func (p *Pusher) loop() {
	defer close(p.done)
	for {
		select {
		case <-p.ticker.C:
			p.Flush()
		case <-p.stop:
			return
		}
	}
}

// Close stops the loop, performs a final flush so buffered interval
// deltas are not lost, and closes the connection.
func (p *Pusher) Close() error {
	p.ticker.Stop()
	close(p.stop)
	<-p.done
	p.Flush()
	return p.conn.Close()
}

// Flush gathers every registry once and sends the interval's lines. Safe
// for concurrent use with the ticker loop.
func (p *Pusher) Flush() {
	p.mu.Lock()
	defer p.mu.Unlock()
	var lines []string
	for _, r := range p.cfg.Registries {
		for _, s := range r.gather() {
			lines = append(lines, p.linesFor(s)...)
		}
	}
	p.send(lines)
}

// linesFor renders one sample's statsd lines, updating the previous-flush
// state. Called with p.mu held.
func (p *Pusher) linesFor(s sample) []string {
	key := p.statsdKey(s.name, s.kv)
	switch {
	case s.hist != nil:
		return p.histLines(key, s.hist)
	case s.kind == kindCounter:
		prev := p.prev[key]
		p.prev[key] = prevEntry{val: s.val}
		if d := s.val - prev.val; d > 0 {
			return []string{key + ":" + formatStatsd(d) + "|c"}
		}
		return nil
	default: // gauge: absolute value every flush
		return []string{key + ":" + formatStatsd(s.val) + "|g"}
	}
}

// histLines renders a histogram as interval count/sum counters plus
// percentile gauges over the interval's bucket deltas. Called with p.mu
// held.
func (p *Pusher) histLines(key string, h *histSnapshot) []string {
	prev := p.prev[key]
	cur := prevEntry{counts: h.counts, sum: h.sum, count: h.count}
	p.prev[key] = cur
	dCount := h.count - prev.count
	if prev.count > h.count || len(prev.counts) != len(h.counts) {
		// Bucket layout changed or state reset: treat this interval as the
		// first one.
		prev = prevEntry{counts: make([]uint64, len(h.counts))}
		dCount = h.count
	}
	if dCount == 0 {
		return nil
	}
	lines := []string{
		key + ".count:" + strconv.FormatUint(dCount, 10) + "|c",
		key + ".sum:" + formatStatsd(h.sum-prev.sum) + "|c",
	}
	deltas := make([]uint64, len(h.counts))
	for i := range h.counts {
		deltas[i] = h.counts[i] - prev.counts[i]
	}
	for _, q := range pushQuantiles {
		v := quantileFromBuckets(h.bounds, deltas, dCount, q)
		lines = append(lines, fmt.Sprintf("%s.p%d:%s|g", key, int(q*100+0.5), formatStatsd(v)))
	}
	return lines
}

// quantileFromBuckets estimates the q-quantile from non-cumulative bucket
// deltas by linear interpolation within the containing bucket — the same
// estimate Prometheus's histogram_quantile makes. Observations in the
// +Inf bucket clamp to the last finite bound.
func quantileFromBuckets(bounds []float64, deltas []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, d := range deltas {
		prev := cum
		cum += float64(d)
		if cum < target {
			continue
		}
		if i == len(bounds) { // +Inf bucket: no upper bound to interpolate to
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if d == 0 {
			return hi
		}
		return lo + (hi-lo)*(target-prev)/float64(d)
	}
	return bounds[len(bounds)-1]
}

// send writes the lines to the sink — newline-joined, batched under
// maxPacket per datagram for UDP, one stream write for TCP — dropping
// write errors (see NewPusher). Called with p.mu held.
func (p *Pusher) send(lines []string) {
	if len(lines) == 0 {
		return
	}
	if !p.udp {
		_, _ = p.conn.Write([]byte(strings.Join(lines, "\n") + "\n")) // dropped on failure
		return
	}
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		_, _ = p.conn.Write([]byte(b.String())) // dropped on failure
		b.Reset()
	}
	for _, l := range lines {
		if b.Len() > 0 && b.Len()+1+len(l) > maxPacket {
			flush()
		}
		if b.Len() > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(l)
	}
	flush()
}

// statsdKey builds the dotted key: prefix, sanitized metric name, then
// each label value (sorted by label key) as one sanitized segment. Label
// keys are dropped — statsd's namespace is positional — and the sorted
// order makes the key deterministic whatever the registration order.
func (p *Pusher) statsdKey(name string, kv []string) string {
	var b strings.Builder
	b.WriteString(p.cfg.Prefix)
	b.WriteString(sanitizeStatsd(name))
	if len(kv) >= 2 {
		type pair struct{ k, v string }
		ps := make([]pair, 0, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			ps = append(ps, pair{kv[i], kv[i+1]})
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
		for _, pr := range ps {
			b.WriteByte('.')
			b.WriteString(sanitizeStatsd(strings.ToLower(pr.v)))
		}
	}
	return b.String()
}

// sanitizeStatsd maps a name or label value into statsd's safe alphabet
// [A-Za-z0-9._-], replacing everything else with '_'.
func sanitizeStatsd(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatStatsd renders a metric value: integers without a decimal point,
// fractional values in shortest round-trip form.
func formatStatsd(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
