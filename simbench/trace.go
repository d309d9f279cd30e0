package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one timed call from the benchmark into the program: its name,
// the index of the enclosing span (-1 at the top) and its start and end
// in seconds since the tracer was created.
type span struct {
	Name   string
	Parent int
	Start  float64
	End    float64
}

// tracer times the benchmark's calls into the program. Durations are
// always measured, since the end-to-end metrics need them; spans are
// kept in memory only when tracing is on. Calls are sequential, so a
// stack of open spans gives each span its parent.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// do runs fn inside a span and returns its wall seconds.
func (t *tracer) do(name string, fn func() error) (float64, error) {
	idx := -1
	if t.on {
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1]
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Seconds()})
		t.open = append(t.open, idx)
	}
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	if idx >= 0 {
		t.spans[idx].End = time.Since(t.t0).Seconds()
		t.open = t.open[:len(t.open)-1]
	}
	return d, err
}

// spanTotals is the per-name summary of a span list: call count, total
// seconds, and self seconds (total minus the time child spans cover).
type spanTotal struct {
	Name        string
	Count       int
	Total, Self float64
}

func spanTotals(spans []span) []spanTotal {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*spanTotal{}
	var out []spanTotal
	var order []string
	for i, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			byName[s.Name] = t
			order = append(order, s.Name)
		}
		t.Count++
		t.Total += s.End - s.Start
		t.Self += s.End - s.Start - child[i]
	}
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// modulePrefix marks the program's own packages in profile frames.
const modulePrefix = "p2pmpi/internal/"

// cpuBucket names the bucket one CPU sample is charged to, given its
// frames leaf first: the innermost p2pmpi/internal/<module> frame; "gc"
// for a stack without one that runs the garbage collector; "goruntime"
// for any other stack made only of runtime frames; "other" otherwise.
func cpuBucket(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	runtimeOnly := true
	for _, f := range frames {
		if isGCFrame(f) {
			return "gc"
		}
		if !isRuntimeFrame(f) {
			runtimeOnly = false
		}
	}
	if runtimeOnly {
		return "goruntime"
	}
	return "other"
}

func isGCFrame(f string) bool {
	return strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
		strings.HasPrefix(f, "runtime.bgscavenge") || f == "runtime.GC" || f == "runtime._GC"
}

func isRuntimeFrame(f string) bool {
	return strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "internal/runtime/") ||
		strings.HasPrefix(f, "runtime/internal/")
}

// cpuByBucket decodes a gzipped pprof CPU profile, as written by
// runtime/pprof, and sums its CPU seconds per cpuBucket. Each sample
// lands in exactly one bucket, so the buckets add up to the total.
func cpuByBucket(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1 // the value index holding CPU nanoseconds
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("cpu profile: no cpu sample type")
	}
	out := map[string]float64{}
	var frames []string
	for _, s := range p.samples {
		if cpu >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, loc := range s.locations {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.str(p.funcNames[fn]))
			}
		}
		out[cpuBucket(frames)] += float64(s.values[cpu]) / 1e9
	}
	return out, nil
}

// profile holds the parts of a pprof profile.proto message the bucketing
// needs.
type profile struct {
	strings     []string
	sampleTypes []uint64 // string index of each value's type
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]uint64   // function id -> string index of its name
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i uint64) string {
	if i < uint64(len(p.strings)) {
		return p.strings[i]
	}
	return ""
}

var errBadProfile = errors.New("cpu profile: malformed protobuf")

// Field numbers of profile.proto.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profStrings    = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]uint64{}}
	r := pbReader{b}
	for len(r.b) > 0 {
		f, err := r.next()
		if err != nil {
			return nil, err
		}
		switch f.num {
		case profSampleType:
			// ValueType{1: type}
			err = f.each(func(g pbField) error {
				if g.num == 1 {
					p.sampleTypes = append(p.sampleTypes, g.v)
				}
				return nil
			})
		case profSample:
			// Sample{1: location_id, 2: value}
			var s sample
			err = f.each(func(g pbField) error {
				switch g.num {
				case 1:
					return g.uints(func(v uint64) { s.locations = append(s.locations, v) })
				case 2:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
		case profLocation:
			// Location{1: id, 4: Line{1: function_id}}
			var id uint64
			var fns []uint64
			err = f.each(func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					return g.each(func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
		case profFunction:
			// Function{1: id, 2: name}
			var id, name uint64
			err = f.each(func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			p.funcNames[id] = name
		case profStrings:
			p.strings = append(p.strings, string(f.data))
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// pbField is one decoded protobuf field: its number and wire type, the
// value of a varint or fixed-width field, or the bytes of a
// length-delimited one.
type pbField struct {
	num, wire int
	v         uint64
	data      []byte
}

// each decodes a length-delimited field as an embedded message.
func (f pbField) each(fn func(pbField) error) error {
	if f.wire != 2 {
		return errBadProfile
	}
	r := pbReader{f.data}
	for len(r.b) > 0 {
		g, err := r.next()
		if err != nil {
			return err
		}
		if err := fn(g); err != nil {
			return err
		}
	}
	return nil
}

// uints yields the values of a repeated varint field, packed or not.
func (f pbField) uints(fn func(uint64)) error {
	if f.wire == 0 {
		fn(f.v)
		return nil
	}
	if f.wire != 2 {
		return errBadProfile
	}
	r := pbReader{f.data}
	for len(r.b) > 0 {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		fn(v)
	}
	return nil
}

type pbReader struct{ b []byte }

func (r *pbReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, errBadProfile
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *pbReader) next() (pbField, error) {
	key, err := r.uvarint()
	if err != nil {
		return pbField{}, err
	}
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.v, err = r.uvarint()
	case 1:
		if len(r.b) < 8 {
			return f, errBadProfile
		}
		f.v, r.b = binary.LittleEndian.Uint64(r.b), r.b[8:]
	case 2:
		var n uint64
		if n, err = r.uvarint(); err == nil {
			if n > uint64(len(r.b)) {
				return f, errBadProfile
			}
			f.data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return f, errBadProfile
		}
		f.v, r.b = uint64(binary.LittleEndian.Uint32(r.b)), r.b[4:]
	default:
		return f, errBadProfile
	}
	return f, err
}
