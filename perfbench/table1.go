package main

import (
	"errors"
	"math/rand"
	"time"

	"barracuda/internal/bench"
	"barracuda/internal/core"
	"barracuda/internal/detector"
)

// table1Program is a Table 1 stand-in as a workload input, checked with
// bench.VerifyRaces.
func table1Program(b *bench.Benchmark) *program {
	return &program{
		name: b.Name, src: b.PTX(), kernel: "main", grid: b.Grid, block: b.Block, bufs: b.Buffers(),
		racy:   b.ExpectRaces > 0,
		verify: func(rep *core.Report) error { return bench.VerifyRaces(b, rep) },
	}
}

// runTable1 runs the 26 Table 1 stand-ins, each on its own warm session.
// A set-up generates the kernels, opens their sessions and allocates
// their buffers.
func runTable1(r *run) error {
	var progs []*program
	var warm map[*program]*loaded
	if err := r.setup(func() error {
		progs, warm = nil, map[*program]*loaded{}
		for _, b := range bench.All() {
			p := table1Program(b)
			l, err := open(p)
			if err != nil {
				return err
			}
			progs = append(progs, p)
			warm[p] = l
		}
		return nil
	}, nil); err != nil {
		return err
	}
	return r.passes(progs, warm)
}

// job runs one job of p and files it in the ledger: detection on p's
// warm session l, or, when l is nil, from source through OpenPTX to
// detection on a new session. It returns the session it used.
func (r *run) job(p *program, l *loaded) *loaded {
	cpu0, alloc0, start := cpuSeconds(), heapAllocs(), nowNS()
	var err error
	if l == nil {
		l, err = open(p)
	}
	var res *detector.Result
	var first int64
	if err == nil {
		res, first, err = r.detect(l)
	}
	end := nowNS()
	cpu, alloc := cpuSeconds()-cpu0, heapAllocs()-alloc0
	if err == nil {
		err = p.verify(res.Report)
	}
	if err == nil {
		err = r.check(p.name, detectCounts(l, res))
	}
	if err == nil && p.racy && first == 0 {
		err = errors.New("no race reported to the observer")
	}
	if err != nil {
		r.ledger.fail("%s: %v", p.name, err)
		return l
	}
	j := job{
		class: p.name, prog: p.name, racy: p.racy,
		ms:       float64(end-start) / 1e6,
		cpuMS:    cpu * 1e3,
		allocMB:  float64(alloc) / 1e6,
		detectMS: float64(res.Duration.Nanoseconds()) / 1e6,
	}
	if p.racy {
		j.ttfrMS = float64(first-start) / 1e6
	}
	r.ledger.add(j)
	return l
}

// passes runs one sequential caller over progs (on their warm sessions,
// or cold where warm has none). A warm-up pass compiles every kernel and
// records its native run time; then whole passes, each in a fresh seeded
// order, run until the time is up. A traced run then probes every layer
// of every program once and sends each program through the service.
func (r *run) passes(progs []*program, warm map[*program]*loaded) error {
	native := map[string]float64{}
	for _, p := range progs {
		l := r.job(p, warm[p])
		if l == nil {
			continue // the failure is booked
		}
		launch, err := l.launch()
		if err == nil {
			var d time.Duration
			_, d, err = l.sess.RunNative(p.kernel, launch)
			native[p.name] = float64(d.Nanoseconds()) / 1e6
		}
		if err != nil {
			r.ledger.fail("%s: native: %v", p.name, err)
		}
	}

	rng := rand.New(rand.NewSource(r.seed))
	w := r.openWindow(len(progs))
	deadline := time.Duration(r.seconds * float64(time.Second))
	for pass := 0; pass == 0 || time.Since(w.start) < deadline; pass++ {
		w.mark()
		for _, i := range rng.Perm(len(progs)) {
			r.job(progs[i], warm[progs[i]])
		}
	}
	w.mark()
	if err := r.closeWindow(w); err != nil {
		return err
	}
	r.rows(w, native)
	if !r.traced {
		return nil
	}

	for _, i := range rng.Perm(len(progs)) {
		p := progs[i]
		l := warm[p]
		var err error
		if l == nil {
			l, err = open(p)
		}
		if err == nil {
			err = r.probe(l)
		}
		if err != nil {
			r.ledger.fail("probe %s: %v", p.name, err)
		}
	}
	svc, err := r.serviceProbe(progs)
	if err != nil {
		return err
	}
	r.layerMetrics(svc)
	return nil
}
