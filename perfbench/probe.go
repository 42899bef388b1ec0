package main

import (
	"fmt"

	"barracuda/internal/core"
	"barracuda/internal/detector"
	"barracuda/internal/gpusim"
	"barracuda/internal/instrument"
	"barracuda/internal/logging"
	"barracuda/internal/ptx"
)

// program is one workload input: PTX source and its launch.
type program struct {
	name   string
	src    string
	kernel string
	grid   gpusim.Dim3
	block  gpusim.Dim3
	bufs   []int  // zeroed global buffers, passed as the kernel's u64 params
	budget uint64 // warp-instruction budget: 0 is none in process, the daemon's default on the service

	racy   bool                     // ground truth has races
	verify func(*core.Report) error // checks a report against ground truth
}

// loaded is a program on an open session with its buffers allocated.
type loaded struct {
	p    *program
	sess *detector.Session
	args []uint64
}

// open parses, instruments and loads p and allocates its buffers.
func open(p *program) (*loaded, error) {
	s, err := detector.OpenPTX(p.src, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	l := &loaded{p: p, sess: s}
	for _, n := range p.bufs {
		a, err := s.Dev.Alloc(n)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		l.args = append(l.args, a)
	}
	return l, nil
}

// launch re-zeroes the buffers, so every run of a warm session starts
// from the same memory, and returns the launch configuration.
func (l *loaded) launch() (gpusim.LaunchConfig, error) {
	for i, a := range l.args {
		if err := l.sess.Dev.Memset(a, 0, l.p.bufs[i]); err != nil {
			return gpusim.LaunchConfig{}, err
		}
	}
	return gpusim.LaunchConfig{Grid: l.p.grid, Block: l.p.block, Args: l.args, MaxWarpInstrs: l.p.budget}, nil
}

// sites is the number of instrumented logging sites of the session.
func (l *loaded) sites() int {
	n := 0
	for _, st := range l.sess.Stats {
		n += st.Instrumented
	}
	return n
}

// detect runs one detection on l as span "detector.DetectObserved". It
// returns the result and the nowNS time of the first race callback (0
// when none fired).
func (r *run) detect(l *loaded) (*detector.Result, int64, error) {
	launch, err := l.launch()
	if err != nil {
		return nil, 0, err
	}
	var res *detector.Result
	var firstNS int64
	err = r.tr.do(l.p.name, "detector.DetectObserved", func() (map[string]uint64, error) {
		var err error
		res, err = l.sess.DetectObserved(l.p.kernel, launch, func(core.Race) {
			// Callbacks are serialized by the report lock and end before
			// DetectObserved returns.
			if firstNS == 0 {
				firstNS = nowNS()
			}
		})
		if err != nil {
			return nil, err
		}
		return map[string]uint64{"warp_instrs": res.SimStats.WarpInstrs, "records": res.SimStats.Records}, nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", l.p.name, err)
	}
	return res, firstNS, nil
}

// detectCounts are the counts of an in-process detection.
func detectCounts(l *loaded, res *detector.Result) counts {
	return counts{
		WarpInstrs: res.SimStats.WarpInstrs,
		Records:    res.Report.RecordsSeen,
		Sites:      l.sites(),
		Races:      res.Report.RaceCount(),
		Digest:     res.Report.CanonicalDigest(),
	}
}

// countSink counts the records a launch emits.
type countSink struct{ n uint64 }

func (s *countSink) Emit(*logging.Record) { s.n++ }

// probe times every layer of one program from outside, as spans: parse,
// instrument and load run cold; the native run, the simulator with a
// counting sink, and capture then replay (transport and detection) run
// on l's session with fresh buffers. The counts it sees are checked
// against the job's.
func (r *run) probe(l *loaded) error {
	p := l.p
	var m *ptx.Module
	var ir *instrument.Result
	steps := []struct {
		name string
		f    func() (map[string]uint64, error)
	}{
		{"ptx.Parse", func() (map[string]uint64, error) {
			var err error
			m, err = ptx.Parse(p.src)
			return nil, err
		}},
		{"instrument.Instrument", func() (map[string]uint64, error) {
			var err error
			ir, err = instrument.Instrument(m, instrument.Options{NoPrune: cfg.NoPrune, StaticPrune: cfg.StaticPrune})
			if err != nil {
				return nil, err
			}
			return map[string]uint64{"sites": uint64(ir.TotalStats().Instrumented)}, nil
		}},
		{"gpusim.LoadModule", func() (map[string]uint64, error) {
			dev := gpusim.NewDevice(0)
			if _, err := dev.LoadModule(m); err != nil {
				return nil, err
			}
			_, err := dev.LoadModule(ir.Module)
			return nil, err
		}},
	}
	for _, s := range steps {
		if err := r.tr.do(p.name, s.name, s.f); err != nil {
			return fmt.Errorf("%s: %s: %w", p.name, s.name, err)
		}
	}

	launch, err := l.launch()
	if err != nil {
		return err
	}
	if err := r.tr.do(p.name, "gpusim.RunNative", func() (map[string]uint64, error) {
		_, _, err := l.sess.RunNative(p.kernel, launch)
		return nil, err
	}); err != nil {
		return fmt.Errorf("%s: native: %w", p.name, err)
	}

	// The simulator alone, emitting exactly what DetectObserved emits.
	if launch, err = l.launch(); err != nil {
		return err
	}
	sc := l.sess.Config()
	sink := &countSink{}
	sim := launch
	sim.Sink = sink
	sim.EmitBranchEvents = true
	sim.ProducerFilter = sc.ProducerFilter
	sim.FilterGranularity = sc.Granularity
	var stats gpusim.Stats
	if err := r.tr.do(p.name, "gpusim.Launch", func() (map[string]uint64, error) {
		var err error
		stats, err = l.sess.Instr.Launch(p.kernel, sim)
		return map[string]uint64{"warp_instrs": stats.WarpInstrs, "records": sink.n}, err
	}); err != nil {
		return fmt.Errorf("%s: simulate: %w", p.name, err)
	}

	if launch, err = l.launch(); err != nil {
		return err
	}
	capture, err := l.sess.Capture(p.kernel, launch)
	if err != nil {
		return fmt.Errorf("%s: capture: %w", p.name, err)
	}
	var rep *core.Report
	if err := r.tr.do(p.name, "detector.Replay", func() (map[string]uint64, error) {
		a0 := heapAllocs()
		rr, err := detector.Replay(capture, cfg)
		if err != nil {
			return nil, err
		}
		rep = rr.Report
		return map[string]uint64{
			"records":           uint64(rr.Records),
			"alloc_bytes":       heapAllocs() - a0,
			"shadow_peak_bytes": uint64(rr.Report.Shadow.PeakResidentBytes),
		}, nil
	}); err != nil {
		return fmt.Errorf("%s: replay: %w", p.name, err)
	}

	return r.check(p.name, counts{
		WarpInstrs: stats.WarpInstrs,
		Records:    rep.RecordsSeen,
		Sites:      ir.TotalStats().Instrumented,
		Races:      rep.RaceCount(),
		Digest:     rep.CanonicalDigest(),
	})
}

// layerMetrics reports the per-layer metrics of the spans recorded so
// far. Times are per pass: each program's median, summed over programs.
func (r *run) layerMetrics(svc *svcStats) {
	t := r.tr
	parse, instr, load := t.layerMS("ptx.Parse"), t.layerMS("instrument.Instrument"), t.layerMS("gpusim.LoadModule")
	native, sim, replay := t.layerMS("gpusim.RunNative"), t.layerMS("gpusim.Launch"), t.layerMS("detector.Replay")
	detect := t.layerMS("detector.DetectObserved")
	warpInstrs := t.layerCount("gpusim.Launch", "warp_instrs")
	records := t.layerCount("detector.Replay", "records")
	r.metric("ptx.parse_ms", "ms", parse)
	r.metric("instrument.ms", "ms", instr)
	r.metric("instrument.sites", "count", t.layerCount("instrument.Instrument", "sites"))
	r.metric("gpusim.load_ms", "ms", load)
	r.metric("gpusim.native_ms", "ms", native)
	r.metric("gpusim.sim_ms", "ms", sim)
	r.metric("gpusim.warp_instrs", "count", warpInstrs)
	r.metric("gpusim.records", "count", t.layerCount("gpusim.Launch", "records"))
	r.metric("gpusim.ns_per_warp_instr", "ns", ratio(sim*1e6, warpInstrs))
	r.metric("core.replay_ms", "ms", replay)
	r.metric("core.records_per_s", "1/s", ratio(records*1e3, replay))
	r.metric("core.alloc_mb", "MB", t.layerCount("detector.Replay", "alloc_bytes")/1e6)
	r.metric("shadow.peak_resident_mb", "MB", t.layerCount("detector.Replay", "shadow_peak_bytes")/1e6)
	r.metric("detector.detect_ms", "ms", detect)
	r.metric("detector.overlap", "ratio", ratio(sim+replay, detect))
	r.metric("detector.overhead_x", "ratio", ratio(detect, native))
	svc.metrics(r)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
