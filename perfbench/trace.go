package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// span is one recorded interval. Root spans are named "bench.<phase>"
// (setup, op, check, sweep); every other span wraps one call into the
// layer named by the prefix before the first dot.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Split hands shares of this span's self time to other layers. A
	// charlib.Characterize span uses it to attribute its wall time to
	// spice and polyfit in proportion to the simulation and regression
	// time its CharStats report, since the benchmark cannot open spans
	// inside the sweep.
	Split map[string]float64 `json:"split,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// layer is the module a span's self time belongs to.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (r *recorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: time.Since(r.t0).Seconds()})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.t0).Seconds()
}

func (r *recorder) split(id int, shares map[string]float64) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].Split = shares
}

// durations returns the durations in seconds of every span called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes attributes the self time of every span below the roots
// named root (a span's duration minus its children's) to layers. The
// returned total is the summed duration of those roots: the layers'
// self times add up to it exactly.
func (r *recorder) selfTimes(root string) (layers map[string]float64, total float64) {
	layers = map[string]float64{}
	children := map[int]float64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	rootOf := make([]string, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent == 0 {
			rootOf[s.ID] = s.Name
		} else {
			rootOf[s.ID] = rootOf[s.Parent]
		}
		if rootOf[s.ID] != root {
			continue
		}
		if s.Parent == 0 {
			total += s.dur()
		}
		self := s.dur() - children[s.ID]
		rest := 1.0
		for l, share := range s.Split {
			layers[l] += self * share
			rest -= share
		}
		layers[s.layer()] += self * rest
	}
	return layers, total
}

// writeSpans writes every span as one JSON object per line.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSelfTable prints the per-layer self-time table of each root phase.
func (r *recorder) writeSelfTable(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "phase\tlayer\tself_s\tshare\t")
	for _, root := range []string{"bench.setup", "bench.op", "bench.check", "bench.sweep"} {
		layers, total := r.selfTimes(root)
		if total == 0 {
			continue
		}
		names := make([]string, 0, len(layers))
		for l := range layers {
			names = append(names, l)
		}
		sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
		for _, l := range names {
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.2f%%\t\n", root, l, layers[l], 100*layers[l]/total)
		}
		fmt.Fprintf(tw, "%s\t(wall)\t%.4f\t100.00%%\t\n", root, total)
	}
	tw.Flush()
}
