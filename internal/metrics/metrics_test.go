package metrics

import (
	"strings"
	"testing"
	"time"

	"repro/internal/membership"
)

func TestChangeRecorder(t *testing.T) {
	r := NewChangeRecorder(7, membership.EventLeave, 10*time.Second)
	d1 := membership.NewDirectory(1)
	d2 := membership.NewDirectory(2)
	r.Watch(1, d1)
	r.Watch(2, d2)
	// Populate then remove at different times.
	d1.Upsert(membership.MemberInfo{Node: 7}, membership.OriginDirect, 0, membership.NoNode, 0)
	d2.Upsert(membership.MemberInfo{Node: 7}, membership.OriginDirect, 0, membership.NoNode, 0)
	d1.Remove(7, 15*time.Second)
	d2.Remove(7, 18*time.Second)
	if r.Count() != 2 {
		t.Fatalf("count = %d", r.Count())
	}
	det, ok := r.DetectionTime()
	if !ok || det != 5*time.Second {
		t.Fatalf("detection = %v, %v", det, ok)
	}
	conv, ok := r.ConvergenceTime()
	if !ok || conv != 8*time.Second {
		t.Fatalf("convergence = %v, %v", conv, ok)
	}
}

func TestChangeRecorderIgnoresEarlyAndOtherEvents(t *testing.T) {
	r := NewChangeRecorder(7, membership.EventLeave, 10*time.Second)
	d := membership.NewDirectory(1)
	r.Watch(1, d)
	d.Upsert(membership.MemberInfo{Node: 7}, membership.OriginDirect, 0, membership.NoNode, 0)
	d.Remove(7, 5*time.Second) // before `since`
	if r.Count() != 0 {
		t.Fatal("recorded pre-window event")
	}
	d.Upsert(membership.MemberInfo{Node: 9}, membership.OriginDirect, 0, membership.NoNode, 11*time.Second)
	d.Remove(9, 12*time.Second) // other subject
	if r.Count() != 0 {
		t.Fatal("recorded other subject")
	}
	if _, ok := r.DetectionTime(); ok {
		t.Fatal("detection reported with no samples")
	}
	if _, ok := r.ConvergenceTime(); ok {
		t.Fatal("convergence reported with no samples")
	}
}

func TestChangeRecorderFirstOnly(t *testing.T) {
	r := NewChangeRecorder(7, membership.EventLeave, 0)
	d := membership.NewDirectory(1)
	r.Watch(1, d)
	for i := 1; i <= 3; i++ {
		d.Upsert(membership.MemberInfo{Node: 7, Incarnation: uint32(i)}, membership.OriginDirect, 0, membership.NoNode, time.Duration(i)*time.Second)
		d.Remove(7, time.Duration(i)*time.Second+500*time.Millisecond)
	}
	det, _ := r.DetectionTime()
	conv, _ := r.ConvergenceTime()
	if det != conv || det != 1500*time.Millisecond {
		t.Fatalf("det=%v conv=%v, want first occurrence only", det, conv)
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{Title: "Bandwidth", XLabel: "nodes", YLabel: "MB/s"}
	a := f.AddSeries("All-to-all")
	h := f.AddSeries("Hierarchical")
	a.Add(20, 0.1)
	a.Add(100, 2.3)
	h.Add(20, 0.1)
	out := f.Render()
	for _, want := range []string{"# Bandwidth", "All-to-all", "Hierarchical", "20", "100", "2.3", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMeanPercentile(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty input should give 0")
	}
	v := []float64{4, 1, 3, 2}
	if Percentile(v, 50) != 2 {
		t.Fatalf("p50 = %v", Percentile(v, 50))
	}
	if Percentile(v, 100) != 4 {
		t.Fatalf("p100 = %v", Percentile(v, 100))
	}
	if Percentile(v, 1) != 1 {
		t.Fatalf("p1 = %v", Percentile(v, 1))
	}
}
