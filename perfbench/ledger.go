package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// job is one completed, verified operation of a workload.
type job struct {
	class    string  // medians are taken per class: a program, or program/surface/cache state on service
	prog     string  // program name
	racy     bool    // ground truth has races: the job counts towards ttfr
	ms       float64 // submit to result
	ttfrMS   float64 // submit to the first race reported
	cpuMS    float64 // process CPU over the job (table1, bugsuite)
	allocMB  float64 // heap allocated over the job (table1, bugsuite)
	detectMS float64 // detector.Result.Duration
}

// ledger collects a run's jobs and failures. Every attempted operation
// either adds a job or a failure.
type ledger struct {
	mu        sync.Mutex
	jobs      []job
	attempted int
	failures  []string
}

func (l *ledger) add(j job) {
	l.mu.Lock()
	l.attempted++
	l.jobs = append(l.jobs, j)
	l.mu.Unlock()
}

func (l *ledger) fail(format string, a ...any) {
	l.mu.Lock()
	l.attempted++
	l.failures = append(l.failures, fmt.Sprintf(format, a...))
	l.mu.Unlock()
}

var errNoJobs = errors.New("no job completed in the measured window")

// window measures a closed loop's wall time, process CPU and heap
// allocation. The loop marks the start of every pass (or mix cycle) and
// its end; throughput and CPU per job are medians over these periods,
// so a burst of host contention that slows a few passes does not move
// them.
type window struct {
	start     time.Time
	user, sys float64
	alloc     uint64
	gcs       uint64
	jobs      int
	perPass   int // jobs in one period between marks
	marks     []mark
}

type mark struct {
	ns  int64
	cpu float64
}

func (w *window) mark() { w.marks = append(w.marks, mark{ns: nowNS(), cpu: cpuSeconds()}) }

func (r *run) openWindow(perPass int) *window {
	r.ledger.mu.Lock()
	n := len(r.ledger.jobs)
	r.ledger.mu.Unlock()
	u, s := userSys()
	return &window{start: time.Now(), user: u, sys: s, alloc: heapAllocs(), gcs: gcCycles(), jobs: n, perPass: perPass}
}

// closeWindow computes the end-to-end metrics over the jobs completed
// since w opened. A traced run keeps them aside, to compare with the
// untraced run, instead of reporting them. job_p50_ms and job_p90_ms
// are Harrell-Davis quantiles over every job of the window, one sample
// per job.
func (r *run) closeWindow(w *window) error {
	wall := time.Since(w.start).Seconds()
	u, s := userSys()
	user, sys := u-w.user, s-w.sys
	alloc := heapAllocs() - w.alloc
	r.ledger.mu.Lock()
	jobs := append([]job(nil), r.ledger.jobs[w.jobs:]...)
	r.ledger.mu.Unlock()
	if len(jobs) == 0 || len(w.marks) < 2 {
		return errNoJobs
	}
	var rates, cpus []float64
	for i := 1; i < len(w.marks); i++ {
		a, b := w.marks[i-1], w.marks[i]
		rates = append(rates, float64(w.perPass)*1e9/float64(b.ns-a.ns))
		cpus = append(cpus, (b.cpu-a.cpu)*1e3/float64(w.perPass))
	}

	classes := map[string][]float64{}
	ttfr := map[string][]float64{}
	all := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		classes[j.class] = append(classes[j.class], j.ms)
		all = append(all, j.ms)
		if j.racy {
			ttfr[j.class] = append(ttfr[j.class], j.ttfrMS)
		}
	}
	classMedians := func(m map[string][]float64) []float64 {
		var out []float64
		for _, xs := range m {
			out = append(out, median(xs))
		}
		return out
	}
	n := float64(len(jobs))
	e2e := map[string]metric{}
	set := func(name, unit string, v float64) { e2e[name] = metric{Value: v, Unit: unit} }
	set("jobs_per_s", "1/s", median(rates))
	set("job_gmean_ms", "ms", gmean(classMedians(classes)))
	set("job_p50_ms", "ms", hdQuantile(all, 0.5))
	set("job_p90_ms", "ms", hdQuantile(all, 0.9))
	set("ttfr_gmean_ms", "ms", gmean(classMedians(ttfr)))
	set("cpu_ms_per_job", "ms", median(cpus))
	set("alloc_mb_per_job", "MB", float64(alloc)/1e6/n)
	set("setup_s", "s", r.setupS)
	if r.traced {
		r.tracedE2E = e2e
	} else {
		for name, m := range e2e {
			r.metrics[name] = m
		}
	}
	r.printf("# period jobs/s p10 %.1f p25 %.1f p50 %.1f p75 %.1f p90 %.1f\n",
		quantile(rates, 0.1), quantile(rates, 0.25), quantile(rates, 0.5), quantile(rates, 0.75), quantile(rates, 0.9))
	beyond := 0
	for _, x := range all {
		if x > e2e["job_p90_ms"].Value {
			beyond++
		}
	}
	r.printf("# window %.2fs, %d periods, %d jobs in %d classes (%d racy); percentiles over %d jobs, %d beyond p90; %.1f jobs/s overall; cpu %.2fs user + %.2fs sys, %d GCs\n",
		wall, len(rates), len(jobs), len(classes), len(ttfr), len(all), beyond, n/wall, user, sys, gcCycles()-w.gcs)
	return nil
}

// setup runs f at least setupReps times and for at least setupMin, each
// run after a GC, and keeps the median duration as setup_s. f leaves its
// state for the measured loop; the last call's state is the one used. A
// non-nil teardown releases one call's state, untimed, before the next
// call.
func (r *run) setup(f func() error, teardown func()) error {
	var ds []float64
	begin := time.Now()
	for i := 0; i < setupReps || (time.Since(begin) < setupMin && i < 10*setupReps); i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		runtime.GC()
		start := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
	}
	r.setupS = median(ds)
	r.printf("# setup_s median %.4f of %d (min %.4f, max %.4f)\n", r.setupS, len(ds), quantile(ds, 0), quantile(ds, 1))
	return nil
}

// rows prints one row per program over the jobs of window w: medians of
// latency, CPU, allocation and detect time, and the paper's Fig. 10
// overhead of the median detect time over the native run time.
func (r *run) rows(w *window, native map[string]float64) {
	byProg := map[string][]job{}
	for _, j := range r.ledger.jobs[w.jobs:] {
		byProg[j.prog] = append(byProg[j.prog], j)
	}
	progs := make([]string, 0, len(byProg))
	for p := range byProg {
		progs = append(progs, p)
	}
	sort.Strings(progs)
	r.printf("# %-34s %5s %10s %10s %10s %10s %11s\n", "program", "n", "median_ms", "cpu_ms", "alloc_mb", "detect_ms", "overhead_x")
	for _, p := range progs {
		var lat, cpu, alloc, det []float64
		for _, j := range byProg[p] {
			lat = append(lat, j.ms)
			cpu = append(cpu, j.cpuMS)
			alloc = append(alloc, j.allocMB)
			det = append(det, j.detectMS)
		}
		ov := 0.0
		if nat := native[p]; nat > 0 {
			ov = median(det) / nat
		}
		r.printf("# %-34s %5d %10.3f %10.3f %10.3f %10.3f %11.2f\n", p, len(lat), median(lat), median(cpu), median(alloc), median(det), ov)
	}
}
