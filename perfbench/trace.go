package main

import (
	"sync"
	"time"
)

// series names one program's values of one span name or span count.
type series struct{ name, prog string }

// tracer keeps, for a traced run, the durations and counts of timed calls
// into the layers. The values are plain float slices, so holding them
// adds nothing for the garbage collector to scan. When off it only runs
// the calls, so traced and untraced runs time jobs through the same
// code.
type tracer struct {
	on     bool
	mu     sync.Mutex
	values map[series][]float64
}

// do runs f as a span named name of program prog. f returns the counts
// to attach to the span.
func (t *tracer) do(prog, name string, f func() (map[string]uint64, error)) error {
	if !t.on {
		_, err := f()
		return err
	}
	start := time.Now()
	c, err := f()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.values == nil {
		t.values = map[series][]float64{}
	}
	t.values[series{name, prog}] = append(t.values[series{name, prog}], ms)
	for k, v := range c {
		key := series{name + "." + k, prog}
		t.values[key] = append(t.values[key], float64(v))
	}
	return err
}

// perProg reduces each program's values of the named series to their
// median, then sums over programs: a per-pass figure.
func (t *tracer) perProg(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for k, xs := range t.values {
		if k.name == name {
			sum += median(xs)
		}
	}
	return sum
}

// layerMS is the per-pass time in spans named name, in ms.
func (t *tracer) layerMS(name string) float64 {
	return t.perProg(name)
}

// layerCount is the per-pass sum of count key on spans named name.
func (t *tracer) layerCount(name, key string) float64 {
	return t.perProg(name + "." + key)
}
