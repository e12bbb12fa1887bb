package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name=value pair attached to a series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Sample is one dynamically produced series: its labels and current
// value. CounterFunc/GaugeFunc callbacks return these at scrape time.
type Sample struct {
	Labels []Label
	Value  float64
}

// Registry collects instruments and renders them in the Prometheus text
// exposition format. Metric families keep registration order so scrapes
// are deterministic; series within a family render in label order. All
// methods are safe for concurrent use — the registry lock guards the
// family tables only, never an instrument's hot path.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// family is every series sharing one metric name, with its HELP/TYPE
// header. Exactly one of the instrument maps or the sample callback is
// populated, according to typ and how the family was registered.
type family struct {
	name, help, typ string
	order           []string // series registration order, by label signature
	counters        map[string]*Counter
	gauges          map[string]*Gauge
	histograms      map[string]*Histogram
	labels          map[string][]Label
	sampler         func() []Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// familyFor returns (creating if needed) the family for name, enforcing
// one TYPE per name. Registering the same name with a different type is a
// programming error and panics — silently rendering a malformed exposition
// would fail every scraper downstream.
func (r *Registry) familyFor(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, typ: typ,
			counters:   map[string]*Counter{},
			gauges:     map[string]*Gauge{},
			histograms: map[string]*Histogram{},
			labels:     map[string][]Label{},
		}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, f.typ, typ))
	}
	if f.sampler != nil {
		panic(fmt.Sprintf("metrics: %s is a sampler family; cannot add static series", name))
	}
	return f
}

// signature renders labels canonically (sorted by name) for use as the
// series key within a family.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// Counter returns the counter series name{labels…}, creating it on first
// use. Repeat calls with the same name and label set return the same
// *Counter, so callers may resolve lazily on a hot path.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, "counter")
	sig := signature(labels)
	if c, ok := f.counters[sig]; ok {
		return c
	}
	c := &Counter{}
	f.counters[sig] = c
	f.labels[sig] = append([]Label(nil), labels...)
	f.order = append(f.order, sig)
	return c
}

// Gauge returns the gauge series name{labels…}, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, "gauge")
	sig := signature(labels)
	if g, ok := f.gauges[sig]; ok {
		return g
	}
	g := &Gauge{}
	f.gauges[sig] = g
	f.labels[sig] = append([]Label(nil), labels...)
	f.order = append(f.order, sig)
	return g
}

// Histogram returns the histogram series name{labels…} over bounds
// (seconds), creating it on first use; bounds are ignored on repeat calls
// for an existing series (the first registration wins — bucket layouts
// are immutable).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.familyFor(name, help, "histogram")
	sig := signature(labels)
	if h, ok := f.histograms[sig]; ok {
		return h
	}
	h := NewHistogram(bounds)
	f.histograms[sig] = h
	f.labels[sig] = append([]Label(nil), labels...)
	f.order = append(f.order, sig)
	return h
}

// CounterFunc registers a whole counter family produced by f at scrape
// time — the bridge for counters whose source of truth lives elsewhere
// (cache stats per scheme, where schemes come and go at runtime). The
// name must not collide with a static family.
func (r *Registry) CounterFunc(name, help string, f func() []Sample) {
	r.registerSampler(name, help, "counter", f)
}

// GaugeFunc registers a whole gauge family produced by f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() []Sample) {
	r.registerSampler(name, help, "gauge", f)
}

func (r *Registry) registerSampler(name, help, typ string, f func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.families[name]; ok {
		panic(fmt.Sprintf("metrics: %s registered twice", name))
	}
	r.families[name] = &family{name: name, help: help, typ: typ, sampler: f}
	r.order = append(r.order, name)
}

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4): a # HELP and # TYPE header per family, then one
// line per series. Sampler families run their callback; histogram series
// render cumulative _bucket{le=…} lines plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	// Snapshot the family and series structure under the lock; instrument
	// values load atomically off the instruments themselves, and sampler
	// callbacks run outside the lock (they may read other locked state).
	type series struct {
		labels []Label
		c      *Counter
		g      *Gauge
		h      *Histogram
	}
	type famSnap struct {
		name, help, typ string
		sampler         func() []Sample
		series          []series
	}
	r.mu.Lock()
	snaps := make([]famSnap, 0, len(r.order))
	for _, name := range r.order {
		f := r.families[name]
		fs := famSnap{name: f.name, help: f.help, typ: f.typ, sampler: f.sampler}
		for _, sig := range f.order {
			fs.series = append(fs.series, series{
				labels: f.labels[sig],
				c:      f.counters[sig],
				g:      f.gauges[sig],
				h:      f.histograms[sig],
			})
		}
		snaps = append(snaps, fs)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range snaps {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.sampler != nil {
			for _, s := range f.sampler() {
				writeSeries(&b, f.name, s.Labels, nil, s.Value)
			}
		}
		for _, s := range f.series {
			switch {
			case s.c != nil:
				writeSeries(&b, f.name, s.labels, nil, float64(s.c.Value()))
			case s.g != nil:
				writeSeries(&b, f.name, s.labels, nil, float64(s.g.Value()))
			case s.h != nil:
				writeHistogram(&b, f.name, s.labels, s.h)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative buckets, sum,
// count.
func writeHistogram(b *strings.Builder, name string, labels []Label, h *Histogram) {
	counts, total := h.snapshot()
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		writeSeries(b, name+"_bucket", labels, &le, float64(cum))
	}
	writeSeries(b, name+"_sum", labels, nil, h.Sum())
	writeSeries(b, name+"_count", labels, nil, float64(total))
	if traceID, v, ok := h.Exemplar(); ok {
		// The 0.0.4 text format has no native exemplar syntax, so the
		// slowest-observation linkage rides in a comment: invisible to
		// strict parsers, greppable by humans chasing a tail latency.
		b.WriteString("# exemplar ")
		b.WriteString(name)
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteByte('=')
			b.WriteString(strconv.Quote(l.Value))
		}
		b.WriteString("} trace_id=")
		b.WriteString(traceID)
		b.WriteString(" value=")
		b.WriteString(formatFloat(v))
		b.WriteByte('\n')
	}
}

// writeSeries renders one sample line; le, when non-nil, is appended as
// the bucket bound label.
func writeSeries(b *strings.Builder, name string, labels []Label, le *string, v float64) {
	b.WriteString(name)
	if len(labels) > 0 || le != nil {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteByte('=')
			b.WriteString(strconv.Quote(l.Value))
		}
		if le != nil {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`le=`)
			b.WriteString(strconv.Quote(*le))
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a value the way Prometheus expects: shortest
// round-trip representation, +Inf spelled out.
func formatFloat(v float64) string {
	if v == inf {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
