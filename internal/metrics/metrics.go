package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/membership"
)

// ChangeRecorder timestamps, per observing node, the first moment its
// directory reflects a particular change (a leave or join of the subject).
type ChangeRecorder struct {
	subject membership.NodeID
	kind    membership.EventType
	since   time.Duration
	first   map[membership.NodeID]time.Duration
}

// NewChangeRecorder watches for `kind` events about subject occurring at or
// after since.
func NewChangeRecorder(subject membership.NodeID, kind membership.EventType, since time.Duration) *ChangeRecorder {
	return &ChangeRecorder{
		subject: subject,
		kind:    kind,
		since:   since,
		first:   make(map[membership.NodeID]time.Duration),
	}
}

// Watch adds the recorder as an observer of a node's directory.
func (r *ChangeRecorder) Watch(observer membership.NodeID, dir *membership.Directory) {
	dir.AddObserver(func(e membership.Event) {
		if e.Type != r.kind || e.Node != r.subject || e.Time < r.since {
			return
		}
		if _, ok := r.first[observer]; !ok {
			r.first[observer] = e.Time
		}
	})
}

// Count returns how many observers recorded the change.
func (r *ChangeRecorder) Count() int { return len(r.first) }

// DetectionTime returns the earliest recording relative to since — the
// paper's failure detection time ("the earliest time when the failure is
// recorded in these log files").
func (r *ChangeRecorder) DetectionTime() (time.Duration, bool) {
	if len(r.first) == 0 {
		return 0, false
	}
	min := time.Duration(math.MaxInt64)
	for _, at := range r.first {
		if at < min {
			min = at
		}
	}
	return min - r.since, true
}

// ConvergenceTime returns the latest recording relative to since — the
// paper's view convergence time ("the latest record time of the failure").
func (r *ChangeRecorder) ConvergenceTime() (time.Duration, bool) {
	if len(r.first) == 0 {
		return 0, false
	}
	max := time.Duration(0)
	for _, at := range r.first {
		if at > max {
			max = at
		}
	}
	return max - r.since, true
}

// Point is one (x, y) sample of a figure's series.
type Point struct {
	X float64
	Y float64
}

// Series is one named line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// Figure is a reproducible table/plot: the harness emits one per paper
// figure and the benchmarks print them.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries creates and attaches a named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Render formats the figure as an aligned text table: one row per distinct
// X, one column per series.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", f.Title)
	fmt.Fprintf(&b, "# y: %s\n", f.YLabel)
	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%16s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range sorted {
		fmt.Fprintf(&b, "%-14.6g", x)
		for _, s := range f.Series {
			val, ok := lookup(s, x)
			if !ok {
				fmt.Fprintf(&b, "%16s", "-")
			} else {
				fmt.Fprintf(&b, "%16.6g", val)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookup(s *Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Percentile returns the p-th percentile (0..100) using nearest-rank.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sorted := append([]float64(nil), v...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
