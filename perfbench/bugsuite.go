package main

import (
	"fmt"

	"barracuda/internal/bugsuite"
	"barracuda/internal/core"
)

// suiteBudget is the bug suite's own step budget: a spin loop that
// cannot make progress (a hang on real hardware) exceeds it.
const suiteBudget = 1 << 19

// suiteProgram is a bug-suite test as a workload input, checked with
// the test's expected verdict.
func suiteProgram(t *bugsuite.Test) *program {
	return &program{
		name: t.Name, src: t.PTX, kernel: t.Kernel, grid: t.Grid, block: t.Block, bufs: t.Bufs,
		budget: suiteBudget,
		racy:   t.Expect == bugsuite.Racy,
		verify: func(rep *core.Report) error {
			v := bugsuite.VClean
			switch {
			case len(rep.Divergences) > 0:
				v = bugsuite.VDiverged
			case rep.HasRaces():
				v = bugsuite.VRacy
			}
			if !t.Expect.Correct(v) {
				return fmt.Errorf("verdict %v, want %v", v, t.Expect)
			}
			return nil
		},
	}
}

// runBugsuite runs the 66 bug-suite programs, each job cold from source
// through OpenPTX to detection and a verdict. A set-up generates the
// suite and opens every program once, the front-end work a job repeats.
func runBugsuite(r *run) error {
	var progs []*program
	if err := r.setup(func() error {
		progs = nil
		for _, t := range bugsuite.Tests() {
			if len(t.ExtraArgs) > 0 {
				return fmt.Errorf("%s: extra kernel arguments are not supported", t.Name)
			}
			p := suiteProgram(t)
			if _, err := open(p); err != nil {
				return err
			}
			progs = append(progs, p)
		}
		return nil
	}, nil); err != nil {
		return err
	}
	return r.passes(progs, nil)
}
