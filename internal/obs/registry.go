package obs

import (
	"io"
	"sort"
	"strconv"
	"sync"
)

// Registry is a dependency-free metrics registry rendered in
// Prometheus text exposition format: plain counters and gauges,
// histograms, and single-label counter families ("labeled series").
// All methods are safe for concurrent use. Names follow Prometheus
// conventions; metrics auto-register on first touch so publishers
// never need a registration phase, but pre-registering (Add with a
// zero delta) makes the full surface visible to the first scrape.
type Registry struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]float64
	hists    map[string]*histogram
	families map[string]*family
	help     map[string]string
}

// histogram buckets hold per-bucket (non-cumulative) counts; the
// cumulative `le` form Prometheus expects is derived at render.
type histogram struct {
	buckets []float64 // upper bounds, ascending
	counts  []uint64  // len(buckets)+1; last is the +Inf overflow
	sum     float64
	count   uint64
}

// family is a counter family with one label key.
type family struct {
	label string
	vals  map[string]float64 // label value -> counter
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		hists:    map[string]*histogram{},
		families: map[string]*family{},
		help:     map[string]string{},
	}
}

// SetHelp attaches a HELP line to a metric name.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// Add increments a counter by delta (registering it at zero first).
func (r *Registry) Add(name string, delta float64) {
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Inc increments a counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// SetGauge records an instantaneous value.
func (r *Registry) SetGauge(name string, v float64) {
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// AddLabeled increments one series of a single-label counter family,
// e.g. AddLabeled("hourglass_job_cost_usd_total", "job", "job-1", c).
// The label key is fixed at the family's first use.
func (r *Registry) AddLabeled(name, labelKey, labelValue string, delta float64) {
	r.mu.Lock()
	f, ok := r.families[name]
	if !ok {
		f = &family{label: labelKey, vals: map[string]float64{}}
		r.families[name] = f
	}
	f.vals[labelValue] += delta
	r.mu.Unlock()
}

// RegisterHistogram declares a histogram with the given ascending
// upper bounds (+Inf is implicit). Re-registering a name replaces it.
func (r *Registry) RegisterHistogram(name string, buckets []float64) {
	h := &histogram{
		buckets: append([]float64(nil), buckets...),
		counts:  make([]uint64, len(buckets)+1),
	}
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
}

// Observe records a value into a registered histogram; observations
// against an unregistered name are dropped.
func (r *Registry) Observe(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		return
	}
	h.sum += v
	h.count++
	for i, ub := range h.buckets {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.buckets)]++
}

// Value reads a counter (or, failing that, a gauge) — for tests.
func (r *Registry) Value(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.counters[name]; ok {
		return v
	}
	return r.gauges[name]
}

// LabeledValue reads one series of a counter family — for tests.
func (r *Registry) LabeledValue(name, labelValue string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		return f.vals[labelValue]
	}
	return 0
}

// HistogramCount returns a histogram's total observation count.
func (r *Registry) HistogramCount(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h.count
	}
	return 0
}

// DropLabel removes the series labelled key=value from every counter
// family keyed by key, e.g. a deleted job's per-job series.
func (r *Registry) DropLabel(key, value string) {
	r.mu.Lock()
	for _, f := range r.families {
		if f.label == key {
			delete(f.vals, value)
		}
	}
	r.mu.Unlock()
}

// WriteTo renders the registry in Prometheus text exposition format:
// scalars (counters and gauges interleaved by name), then counter
// families, then histograms, each block sorted by metric name. It
// renders under the lock and writes after releasing it.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	var b []byte
	names := append(sortedKeys(r.counters), sortedKeys(r.gauges)...)
	sort.Strings(names)
	for _, name := range names {
		kind, v := "counter", r.counters[name]
		if gv, ok := r.gauges[name]; ok {
			kind, v = "gauge", gv
		}
		b = r.appendHeader(b, name, kind)
		b = append(appendFloat(appendStrings(b, name, " "), v), '\n')
	}

	for _, name := range sortedKeys(r.families) {
		f := r.families[name]
		b = r.appendHeader(b, name, "counter")
		for _, lv := range sortedKeys(f.vals) {
			// Go quoting matches the exposition format's label
			// escaping (backslash, double quote, newline).
			b = strconv.AppendQuote(appendStrings(b, name, "{", f.label, "="), lv)
			b = append(appendFloat(append(b, "} "...), f.vals[lv]), '\n')
		}
	}

	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		b = r.appendHeader(b, name, "histogram")
		var cum uint64
		for i, ub := range h.buckets {
			cum += h.counts[i]
			b = appendFloat(appendStrings(b, name, `_bucket{le="`), ub)
			b = append(strconv.AppendUint(append(b, `"} `...), cum, 10), '\n')
		}
		cum += h.counts[len(h.buckets)]
		b = append(strconv.AppendUint(appendStrings(b, name, `_bucket{le="+Inf"} `), cum, 10), '\n')
		b = append(appendFloat(appendStrings(b, name, "_sum "), h.sum), '\n')
		b = append(strconv.AppendUint(appendStrings(b, name, "_count "), cum, 10), '\n')
	}
	r.mu.Unlock()
	n, err := w.Write(b)
	return int64(n), err
}

// appendHeader appends a metric's HELP line, if any, and TYPE line.
func (r *Registry) appendHeader(b []byte, name, kind string) []byte {
	if help := r.help[name]; help != "" {
		b = appendStrings(b, "# HELP ", name, " ", help, "\n")
	}
	return appendStrings(b, "# TYPE ", name, " ", kind, "\n")
}

func appendStrings(b []byte, parts ...string) []byte {
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }
