// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload with the default detector.Config for a fixed time, checks
// every job's output against ground truth, and prints one JSON result as
// its last line of output:
//
//	bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured from outside each
// layer by timing calls to its public functions (see probe.go). Lines
// before the result give the environment, the set-up samples and one
// row per program.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"barracuda/internal/detector"
)

// cfg is the detector configuration every workload runs: the default.
var cfg = detector.Config{}

// setup_s is the median of at least setupReps cold set-ups spanning at
// least setupMin, so a set-up of a few milliseconds gets enough samples.
const (
	setupReps = 11
	setupMin  = time.Second
)

// workloads maps each workload to its runner and the reason it was
// chosen (the same sentences as BENCHMARK.json).
var workloads = map[string]struct {
	run func(*run) error
	why string
}{
	"table1":   {runTable1, "the paper's 26 Table 1 kernels on warm sessions, one sequential caller: detection, shadow and the simulator dominate"},
	"bugsuite": {runBugsuite, "the 66 bug-suite programs, each cold from source to verdict: the front end and first-touch shadow allocation dominate"},
	"service":  {runService, "an in-process barracudad, 2 closed-loop clients: scheduler, module cache, JSON and wire; the even /jobs-/v1/stream split and 50% repeats are coverage choices, not observed traffic"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool

	tr        *tracer
	ledger    ledger
	setupS    float64
	metrics   map[string]metric
	tracedE2E map[string]metric // a traced run's end-to-end metrics

	countsMu sync.Mutex
	counts   map[string]counts // per program, first observation
	checkErr []string          // determinism and cross-run failures
}

// printf writes a human-readable line; the result is the last line.
func (r *run) printf(format string, a ...any) { fmt.Printf(format, a...) }

func (r *run) metric(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// counts are the per-program figures that must repeat exactly: between
// passes, between runs of one binary and between traced and untraced
// runs (the simulator is deterministic at Queues=1).
type counts struct {
	WarpInstrs uint64 `json:"warp_instrs"`
	Records    uint64 `json:"records"`
	Sites      int    `json:"sites,omitempty"`
	Races      int    `json:"races"`
	Digest     string `json:"digest"`
}

// check records a program's counts, or compares them with its first
// observation in this run.
func (r *run) check(prog string, c counts) error {
	r.countsMu.Lock()
	defer r.countsMu.Unlock()
	prev, ok := r.counts[prog]
	if !ok {
		r.counts[prog] = c
		return nil
	}
	// Some surfaces do not report every count; compare what both have.
	if c.Sites == 0 {
		c.Sites = prev.Sites
	} else if prev.Sites == 0 {
		prev.Sites = c.Sites
		r.counts[prog] = prev
	}
	if c != prev {
		return fmt.Errorf("counts %+v differ from the first observation %+v", c, prev)
	}
	return nil
}

// state is what one run leaves for the next run of the same workload in
// the same checkout: the counts to compare against, and the untraced
// end-to-end metrics the traced run reports its overhead against.
type state struct {
	Binary   string             `json:"binary"`
	Counts   map[string]counts  `json:"counts"`
	Untraced map[string]float64 `json:"untraced,omitempty"`
}

func binaryHash() string {
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	f, err := os.Open(exe)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// crossCheck compares this run's counts with the previous run of the
// same binary, reports the tracing overhead, and saves the new state.
func (r *run) crossCheck(dir string) error {
	path := filepath.Join(dir, "state-"+r.workload+".json")
	bin := binaryHash()
	var prev state
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &prev) == nil && prev.Binary == bin && bin != "" {
		for prog, c := range r.counts {
			if p, ok := prev.Counts[prog]; ok && p != c {
				r.checkErr = append(r.checkErr, fmt.Sprintf("%s: counts %+v differ from the previous run's %+v", prog, c, p))
			}
		}
		if r.traced {
			names := make([]string, 0, len(prev.Untraced))
			for name := range prev.Untraced {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if u, t := prev.Untraced[name], r.tracedE2E[name].Value; u > 0 && t > 0 {
					r.printf("# tracing overhead %-16s %10.4g traced vs %10.4g untraced (%+.1f%%)\n", name, t, u, 100*(t-u)/u)
				}
			}
		}
	} else {
		prev = state{}
	}
	next := state{Binary: bin, Counts: r.counts, Untraced: prev.Untraced}
	if !r.traced {
		next.Untraced = map[string]float64{}
		for name, m := range r.metrics {
			next.Untraced[name] = m.Value
		}
	}
	data, err := json.MarshalIndent(next, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func main() {
	workload := flag.String("workload", "", "table1 | bugsuite | service")
	seed := flag.Int64("seed", 1, "seed for the job order and the service mix")
	seconds := flag.Float64("seconds", 20, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	stateDir := flag.String("state", ".bench_build/perfbench", "directory for cross-run state")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want table1, bugsuite or service)\n", *workload)
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traceFlag == 1,
		metrics:  map[string]metric{},
		counts:   map[string]counts{},
	}
	r.tr = &tracer{on: r.traced}
	// A hung job must fail the run, not outlive the caller's patience.
	limit := time.Duration(3*r.seconds*float64(time.Second)) + 80*time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run exceeded %v\n", r.workload, limit)
		os.Exit(1)
	})
	r.printf("# env workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s config=%+v\n",
		r.workload, r.seed, r.seconds, *traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg)
	r.printf("# why %s: %s\n", r.workload, w.why)

	if err := w.run(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*stateDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := r.crossCheck(*stateDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving state: %v\n", err)
		os.Exit(1)
	}

	res := result{
		Attempted: r.ledger.attempted,
		Failed:    len(r.ledger.failures),
		Metrics:   r.metrics,
	}
	fails := append(r.ledger.failures, r.checkErr...)
	for i, msg := range fails {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(fails)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", msg)
	}
	res.Correct = res.Failed == 0 && len(r.checkErr) == 0 && res.Attempted > 0
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		r.printf("# metric %-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}
