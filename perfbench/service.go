package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"barracuda/internal/bench"
	"barracuda/internal/bugsuite"
	"barracuda/internal/core"
	"barracuda/internal/server"
	"barracuda/internal/wire"
)

// serviceTable1 are the small Table 1 kernels the service mix adds to
// the bug suite: each detects in under 20 ms, so no one job dominates a
// cycle of the mix. The cut-off is a choice, not a measured job size.
var serviceTable1 = []string{
	"hybridsort", "nn", "streamcluster", "hashtable", "block_radix_sort", "block_scan",
	"device_partition_flagged", "device_reduce", "device_scan", "device_select_flagged",
	"device_select_if", "device_select_unique", "device_sort_find_non_trivial_runs",
}

const serviceClients = 2

// daemon is an in-process barracudad on a loopback port.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	addr string
	done chan struct{}
}

func startDaemon() (*daemon, error) {
	srv := server.New(server.SchedulerOptions{
		// Sized so that every repeat of the mix hits and every fresh
		// source misses: a cycle touches about 240 distinct sources.
		CacheEntries: 512,
		SrcEntries:   512,
		// The benchmark measures capacity, not admission policy.
		Tenants: server.TenantOptions{RatePerSec: -1},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return d, nil
}

// stop closes the listener and HTTP connections, waits for Serve to
// return and stops the scheduler's workers. Clients close their stream
// connections first.
func (d *daemon) stop() {
	d.hs.Close()
	<-d.done
	d.srv.Close()
}

// countConn counts the bytes crossing a stream connection.
type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	m, err := c.Conn.Read(p)
	c.n.Add(int64(m))
	return m, err
}

func (c countConn) Write(p []byte) (int, error) {
	m, err := c.Conn.Write(p)
	c.n.Add(int64(m))
	return m, err
}

// client is one closed-loop caller holding a stream connection and an
// HTTP keep-alive connection.
type client struct {
	base  string
	http  *http.Client
	wc    *wire.Client
	bytes atomic.Int64
	seq   uint64
}

func dial(addr string) (*client, error) {
	c := &client{base: "http://" + addr, http: &http.Client{Transport: &http.Transport{}}}
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if c.wc, err = wire.Handshake(countConn{Conn: raw, n: &c.bytes}, addr, "perfbench"); err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

func (c *client) close() {
	_ = c.wc.Bye() // the connection closes next either way
	c.wc.Close()
	c.http.CloseIdleConnections()
}

// reply is one service response, reduced to what the benchmark checks
// and measures.
type reply struct {
	ms, ttfrMS  float64
	report      *core.Report
	counts      counts
	cacheHit    bool
	queueWaitMS float64
	serverMS    float64 // submit to finish, measured by the server
	wireBytes   int64
}

// viaJobs submits src on POST /jobs and long-polls GET /jobs/{id}.
// Nothing reaches the client before the terminal poll, so that is also
// its time to first race.
func (c *client) viaJobs(p *program, src string) (reply, error) {
	start := nowNS()
	body, err := json.Marshal(server.JobRequest{
		PTX: src, Kernel: p.kernel, Grid: p.grid.X, Block: p.block.X,
		Buffers: p.bufs, MaxInstrs: p.budget,
	})
	if err != nil {
		return reply{}, err
	}
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	var info server.JobInfo
	if err := decode(resp, &info); err != nil {
		return reply{}, fmt.Errorf("submit: %w", err)
	}
	for info.Status == server.StatusQueued || info.Status == server.StatusRunning {
		resp, err := c.http.Get(c.base + "/jobs/" + info.ID + "?wait_ms=30000")
		if err != nil {
			return reply{}, err
		}
		if err := decode(resp, &info); err != nil {
			return reply{}, fmt.Errorf("poll: %w", err)
		}
	}
	end := float64(nowNS()-start) / 1e6
	if info.Status != server.StatusDone || info.Result == nil {
		return reply{}, fmt.Errorf("job %s: %s", info.Status, info.Error)
	}
	rep, err := info.Result.CoreReport()
	if err != nil {
		return reply{}, err
	}
	return reply{
		ms: end, ttfrMS: end, report: rep,
		counts:   counts{WarpInstrs: info.Result.WarpInstrs, Records: info.Result.RecordsSeen, Races: rep.RaceCount(), Digest: rep.CanonicalDigest()},
		cacheHit: info.CacheHit, queueWaitMS: info.QueueWaitMS, serverMS: info.TotalMS,
	}, nil
}

func decode(resp *http.Response, into *server.JobInfo) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e server.ErrorJSON
		_ = json.NewDecoder(resp.Body).Decode(&e) // best effort: the status is the error
		return fmt.Errorf("%s: %s (%s)", resp.Status, e.Error, e.Code)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// viaStream uploads src on the client's stream (skipped when the server
// holds it), launches it and reads frames up to its summary.
func (c *client) viaStream(p *program, src string) (reply, error) {
	start := nowNS()
	b0 := c.bytes.Load()
	if _, _, err := c.wc.UploadModule([]byte(src)); err != nil {
		return reply{}, err
	}
	c.seq++
	if err := c.wc.Launch(wire.LaunchSpec{
		Seq: c.seq, Kernel: p.kernel, Grid: p.grid.X, Block: p.block.X,
		MaxInstrs: p.budget, Buffers: p.bufs,
	}); err != nil {
		return reply{}, err
	}
	var ttfr float64
	for {
		ev, err := c.wc.Next()
		if err != nil {
			return reply{}, err
		}
		switch ev.Type {
		case wire.FReject:
			return reply{}, fmt.Errorf("rejected (%s): %s", ev.Reject.Code, ev.Reject.Msg)
		case wire.FRace:
			if ttfr == 0 {
				ttfr = float64(nowNS()-start) / 1e6
			}
		case wire.FSummary:
			s := ev.Summary
			end := float64(nowNS()-start) / 1e6
			if s.Status != server.StatusDone {
				return reply{}, fmt.Errorf("job %s: %s", s.Status, s.Error)
			}
			rep := s.Report()
			return reply{
				ms: end, ttfrMS: ttfr, report: rep,
				counts:   counts{WarpInstrs: s.WarpInstrs, Records: s.RecordsSeen, Races: rep.RaceCount(), Digest: rep.CanonicalDigest()},
				cacheHit: s.CacheHit, queueWaitMS: float64(s.QueueWaitUS) / 1e3, serverMS: float64(s.TotalUS) / 1e3,
				wireBytes: c.bytes.Load() - b0,
			}, nil
		}
	}
}

// svcStats collects the server- and wire-side figures of the requests
// a run sent.
type svcStats struct {
	mu                       sync.Mutex
	requests, hits           int
	queueWait, run, overhead []float64
	wireTTFR                 []float64
	wireBytes                int64
	wireJobs                 int
}

func (s *svcStats) add(stream, racy bool, rp reply) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	if rp.cacheHit {
		s.hits++
	}
	s.queueWait = append(s.queueWait, rp.queueWaitMS)
	s.run = append(s.run, rp.serverMS-rp.queueWaitMS)
	if !stream {
		s.overhead = append(s.overhead, rp.ms-rp.serverMS)
		return
	}
	s.wireJobs++
	s.wireBytes += rp.wireBytes
	if racy {
		s.wireTTFR = append(s.wireTTFR, rp.ttfrMS)
	}
}

func (s *svcStats) metrics(r *run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.metric("server.queue_wait_ms", "ms", median(s.queueWait))
	r.metric("server.run_ms", "ms", median(s.run))
	r.metric("server.http_overhead_ms", "ms", median(s.overhead))
	r.metric("server.cache_hit_ratio", "ratio", ratio(float64(s.hits), float64(s.requests)))
	r.metric("wire.bytes_per_job", "B", ratio(float64(s.wireBytes), float64(s.wireJobs)))
	r.metric("wire.ttfr_ms", "ms", median(s.wireTTFR))
}

// request sends one request and books it: a verified reply is a job of
// class prog/surface/state, anything else a failed operation.
func (r *run) request(c *client, q mixReq, svc *svcStats) {
	p, src, surface, state := q.p, q.p.src, "jobs", "repeat"
	if q.stream {
		surface = "stream"
	}
	if q.fresh {
		// Appended, so race line numbers stay those of the original.
		src, state = fmt.Sprintf("%s\n// perfbench fresh %d\n", p.src, q.n), "fresh"
	}
	var rp reply
	var err error
	if q.stream {
		rp, err = c.viaStream(p, src)
	} else {
		rp, err = c.viaJobs(p, src)
	}
	if err == nil {
		err = p.verify(rp.report)
	}
	if err == nil {
		err = r.check(p.name, rp.counts)
	}
	if err == nil && p.racy && rp.ttfrMS == 0 {
		err = fmt.Errorf("racy program streamed no race")
	}
	if err != nil {
		r.ledger.fail("%s via %s (%s): %v", p.name, surface, state, err)
		return
	}
	svc.add(q.stream, p.racy, rp)
	r.ledger.add(job{class: p.name + "/" + surface + "/" + state, prog: p.name, racy: p.racy, ms: rp.ms, ttfrMS: rp.ttfrMS})
}

// servicePrograms generates the mix's distinct programs.
func servicePrograms() []*program {
	var ps []*program
	for _, t := range bugsuite.Tests() {
		ps = append(ps, suiteProgram(t))
	}
	for _, name := range serviceTable1 {
		ps = append(ps, table1Program(bench.ByName(name)))
	}
	return ps
}

// mix hands out the request sequence: cycles that each hold every
// program four times (stream and /jobs, fresh and repeat) in a seeded
// order. Stopping only at a cycle boundary keeps the measured
// composition identical from run to run. The even split between the
// surfaces and the half of repeats (so, once primed, a cache hit ratio
// of one half) are chosen to cover both surfaces and both cache paths;
// no recorded traffic backs these shares.
type mix struct {
	mu      sync.Mutex
	progs   []*program
	rng     *rand.Rand
	cycle   []int
	pos     int
	stop    atomic.Bool // set to end the mix after the current cycle
	n       int64
	onCycle func() // called as each new cycle starts
}

// mixReq is one request of the mix: a program on a surface, as its
// canonical source (a repeat) or a never-seen variant numbered n.
type mixReq struct {
	p             *program
	stream, fresh bool
	n             int64
}

func (m *mix) next() (mixReq, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pos == len(m.cycle) {
		if m.stop.Load() {
			return mixReq{}, false
		}
		m.cycle, m.pos = m.rng.Perm(4*len(m.progs)), 0
		if m.onCycle != nil {
			m.onCycle()
		}
	}
	k := m.cycle[m.pos]
	m.pos++
	m.n++
	return mixReq{p: m.progs[k/4], stream: k%4 < 2, fresh: k%2 == 0, n: m.n}, true
}

// drive runs the closed loop: each client sends its next request when
// the previous one is answered, until the mix stops.
func (r *run) drive(clients []*client, m *mix, svc *svcStats) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				q, ok := m.next()
				if !ok {
					return
				}
				r.request(c, q, svc)
			}
		}(c)
	}
	wg.Wait()
}

func runService(r *run) error {
	// Ground truth: each distinct program detected in process and
	// verified. Its counts are the first observation every reply is
	// checked against.
	var truth []*loaded
	for _, p := range servicePrograms() {
		l, err := open(p)
		if err != nil {
			return err
		}
		res, _, err := r.detect(l)
		if err == nil {
			err = p.verify(res.Report)
		}
		if err != nil {
			return fmt.Errorf("ground truth: %s: %w", p.name, err)
		}
		if err := r.check(p.name, detectCounts(l, res)); err != nil {
			return err
		}
		truth = append(truth, l)
	}

	// A set-up starts the daemon, connects the clients and primes the
	// caches: every program once through the stream, as the repeats of
	// the mix will send it.
	var d *daemon
	var clients []*client
	var progs []*program
	teardown := func() {
		for _, c := range clients {
			c.close()
		}
		clients = nil
		if d != nil {
			d.stop()
			d = nil
		}
	}
	defer teardown()
	if err := r.setup(func() error {
		progs = servicePrograms()
		var err error
		if d, err = startDaemon(); err != nil {
			return err
		}
		for i := 0; i < serviceClients; i++ {
			c, err := dial(d.addr)
			if err != nil {
				return err
			}
			clients = append(clients, c)
		}
		prime := &mix{progs: progs}
		prime.stop.Store(true)
		for i := range progs {
			prime.cycle = append(prime.cycle, 4*i+1) // stream, repeat
		}
		r.drive(clients, prime, &svcStats{})
		return nil
	}, teardown); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(r.seed))
	svc := &svcStats{}
	w := r.openWindow(4 * len(progs))
	m := &mix{progs: progs, rng: rng, onCycle: w.mark}
	timer := time.AfterFunc(time.Duration(r.seconds*float64(time.Second)), func() { m.stop.Store(true) })
	r.drive(clients, m, svc)
	timer.Stop()
	w.mark()
	if err := r.closeWindow(w); err != nil {
		return err
	}
	if !r.traced {
		return nil
	}
	for _, l := range truth {
		if err := r.probe(l); err != nil {
			r.ledger.fail("probe %v", err)
		}
	}
	r.layerMetrics(svc)
	return nil
}

// serviceProbe sends each of a workload's programs once through /jobs
// and once through /v1/stream of a fresh daemon, for the server and
// wire metrics of the traced table1 and bugsuite runs.
func (r *run) serviceProbe(progs []*program) (*svcStats, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	svc := &svcStats{}
	for _, p := range progs {
		r.request(c, mixReq{p: p}, svc)
		r.request(c, mixReq{p: p, stream: true}, svc)
	}
	return svc, nil
}
