package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/esp"
	"repro/internal/event"
	"repro/internal/netproto"
	"repro/internal/query"
	"repro/internal/rta"
	"repro/internal/schema"
	"repro/internal/vec"
	"repro/internal/workload"
)

// inputs is everything one run sent, kept for the replay and the oracle.
type inputs struct {
	stream       []event.Event // stream events in send order
	probes       []event.Event // sync event probes in send order
	probeFirings []int         // rule firings the server returned per probe
	fresh        []event.Event // freshness probe events
	fences       []event.Event
	// served is every query the windows sent, client queries and
	// freshness polls, in the order they were sent.
	served []*query.Query
}

func (in *inputs) events() int {
	return len(in.stream) + len(in.probes) + len(in.fresh) + len(in.fences)
}

// window is what one measurement window observed.
type window struct {
	elapsed    time.Duration // window start to the return of the final Flush
	events     int           // events completed in the window
	lateMs     []float64     // open-loop generator lateness per event
	behind     int           // open-loop events due but never sent
	eventMs    []float64     // sync probe latency from its due time
	freshMs    []float64     // freshness probe latency from the send
	freshPolls int
	rtaMs      []float64
	// eventAt, freshAt and rtaAt hold each sample's offset into the window,
	// which places it in a sub-window.
	eventAt, freshAt, rtaAt []time.Duration
	rssMB                   []float64 // server VmRSS samples
	genCores                float64   // the generator's own CPU use over the window
	steal                   float64   // share of the host's CPU time stolen by the hypervisor
	attempted               int
	failed                  int
	errs                    []error // first few failures, for the report
	p0, p1                  procSample
	m0, m1                  map[string]float64
	tr                      *tracer // nil for untraced windows
}

func (w *window) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err)
	}
}

// pipeline is the client stack of cmd/aimload: an ESP router over a
// cluster of one node, and an RTA coordinator.
type pipeline struct {
	cl     *cluster.Cluster
	router *esp.Router
	coord  *rta.Coordinator
}

func newPipeline(evSt, qSt core.Storage) (*pipeline, error) {
	cl, err := cluster.NewWithHealth([]core.Storage{evSt}, cluster.HealthConfig{})
	if err != nil {
		return nil, err
	}
	coord, err := rta.NewCoordinatorConfig([]core.Storage{qSt}, rta.Config{})
	if err != nil {
		cl.Close()
		return nil, err
	}
	return &pipeline{cl: cl, router: esp.NewRouter(cl), coord: coord}, nil
}

// session is a running server plus the benchmark's connections to it.
type session struct {
	spec  spec
	seed  int64
	sch   *schema.Schema
	srv   *server
	evCli *netproto.Client // event stream and probes
	qCli  *netproto.Client // queries; the same client on a 1-CPU host
	in    inputs
	// windows are the measurement windows run so far, in order.
	windows []*window
	// probeSeq and nextFresh number event and freshness probes across
	// windows.
	probeSeq, nextFresh uint64
	closed              bool
}

// connections is how many TCP connections the generator opens: one for
// events and one for queries, but never more than the host has CPUs.
func connections() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// startSession spawns the server, preloads every entity once and flushes;
// the returned duration is the set-up time.
func startSession(bin, dataDir string, s spec, seed int64, sch *schema.Schema) (*session, time.Duration, error) {
	t0 := time.Now()
	dir := ""
	if s.durable {
		dir = dataDir
	}
	srv, err := startServer(bin, dir, s.serverArgs(seed))
	if err != nil {
		return nil, 0, err
	}
	ss := &session{spec: s, seed: seed, sch: sch, srv: srv}
	ccfg := netproto.ClientConfig{EventBatch: 256, EventLinger: time.Millisecond}
	if ss.evCli, err = netproto.DialConfig(srv.addr, sch, ccfg); err != nil {
		ss.close()
		return nil, 0, err
	}
	ss.qCli = ss.evCli
	if connections() > 1 {
		if ss.qCli, err = netproto.DialConfig(srv.addr, sch, ccfg); err != nil {
			ss.close()
			return nil, 0, err
		}
	}
	p, err := newPipeline(ss.evCli, ss.qCli)
	if err != nil {
		ss.close()
		return nil, 0, err
	}
	defer p.cl.Close()
	for _, ev := range preloadEvents(s, seed) {
		if err := p.router.Ingest(ev); err != nil {
			ss.close()
			return nil, 0, fmt.Errorf("preload: %w", err)
		}
	}
	if err := p.router.Flush(); err != nil {
		ss.close()
		return nil, 0, fmt.Errorf("preload flush: %w", err)
	}
	return ss, time.Since(t0), nil
}

// close shuts the connections and the server down; later calls are no-ops.
func (ss *session) close() error {
	if ss.closed {
		return nil
	}
	ss.closed = true
	if ss.evCli != nil {
		ss.evCli.Close()
	}
	if ss.qCli != nil && ss.qCli != ss.evCli {
		ss.qCli.Close()
	}
	return ss.srv.stop()
}

// preloadEvents is the set-up stream: one event per entity, in entity
// order. The replay regenerates it from the seed.
func preloadEvents(s spec, seed int64) []event.Event {
	gen := event.NewGenerator(s.entities, seed)
	out := make([]event.Event, s.entities)
	for e := uint64(1); e <= s.entities; e++ {
		gen.NextFor(&out[e-1], e)
	}
	return out
}

// countQuery is COUNT(*) WHERE entity_id <op> id.
func countQuery(op vec.CmpOp, id uint64) *query.Query {
	return &query.Query{
		Where:   []query.Conjunct{{query.PredInt(schema.SlotEntityID, op, int64(id))}},
		Aggs:    []query.AggExpr{{Op: query.OpCount}},
		GroupBy: -1,
	}
}

func countOf(res *query.Result) int64 {
	if len(res.Rows) == 0 {
		return 0
	}
	return int64(res.Rows[0].Values[0])
}

// load is one measurement window in progress: the generator's goroutines
// and what they record.
type load struct {
	ss              *session
	p               *pipeline
	tr              *tracer // nil for untraced windows
	w               *window
	seed            int64
	d               time.Duration
	start, deadline time.Time

	mu sync.Mutex // guards w's counters and samples across the goroutines

	stream       []event.Event
	streamErrs   int
	streamErr    error
	probes       []event.Event
	probeFirings []int
	probeOK      []bool
	fresh        []event.Event
	freshOK      []bool
	served       []*query.Query
}

// note counts one attempted operation and its failure, if any.
func (l *load) note(err error) {
	l.mu.Lock()
	l.w.attempted++
	if err != nil {
		l.w.fail(err)
	}
	l.mu.Unlock()
}

// sent records query q as sent to the server.
func (l *load) sent(q *query.Query) {
	l.mu.Lock()
	l.served = append(l.served, q)
	l.mu.Unlock()
}

// run measures one window of d. With tr set, the window's storage handles
// are wrapped by the timing decorator and the router and coordinator calls
// are timed.
func (ss *session) run(d time.Duration, windowSeed int64, tr *tracer) (*window, error) {
	var evSt, qSt core.Storage = ss.evCli, ss.qCli
	if tr != nil {
		evSt, qSt = &timedStorage{Storage: evSt, t: tr}, &timedStorage{Storage: qSt, t: tr}
	}
	p, err := newPipeline(evSt, qSt)
	if err != nil {
		return nil, err
	}
	defer p.cl.Close()
	l := &load{ss: ss, p: p, tr: tr, w: &window{tr: tr}, seed: windowSeed, d: d}
	w := l.w
	gens := make([]*workload.QueryGen, ss.spec.clients)
	for c := range gens {
		if gens[c], err = workload.NewQueryGen(ss.sch, windowSeed+int64(c)+100); err != nil {
			return nil, err
		}
	}

	if w.m0, err = ss.srv.scrape(); err != nil {
		return nil, err
	}
	if w.p0, err = ss.srv.proc(); err != nil {
		return nil, err
	}
	gen0, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	l.start = time.Now()
	l.deadline = l.start.Add(d)
	var wg sync.WaitGroup
	for _, f := range []func(){l.runStream, l.runEventProbes, l.runFreshProbes, l.sampleRSS} {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(f)
	}
	for _, gen := range gens {
		wg.Add(1)
		go func(gen *workload.QueryGen) {
			defer wg.Done()
			l.runClient(gen)
		}(gen)
	}
	wg.Wait()

	// Count events to the return of the final Flush.
	flushErr := p.router.Flush()
	w.elapsed = time.Since(l.start)
	gen1, err := cpuTime(os.Getpid())
	if err != nil {
		return nil, err
	}
	w.genCores = (gen1 - gen0).Seconds() / w.elapsed.Seconds()
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	w.steal = ratio(float64(steal1-steal0), float64(total1-total0))
	if w.p1, err = ss.srv.proc(); err != nil {
		return nil, err
	}
	if w.m1, err = ss.srv.scrape(); err != nil {
		return nil, err
	}
	w.attempted += len(l.stream)
	w.failed += l.streamErrs
	if l.streamErr != nil {
		w.errs = append(w.errs, l.streamErr)
	}
	if flushErr != nil {
		w.fail(fmt.Errorf("final flush: %w", flushErr))
	}
	w.events = len(l.stream)
	ss.in.stream = append(ss.in.stream, l.stream...)
	for i, ok := range l.probeOK {
		if ok {
			w.events++
			ss.in.probes = append(ss.in.probes, l.probes[i])
			ss.in.probeFirings = append(ss.in.probeFirings, l.probeFirings[i])
		}
	}
	for i, ok := range l.freshOK {
		if ok {
			w.events++
			ss.in.fresh = append(ss.in.fresh, l.fresh[i])
		}
	}
	ss.in.served = append(ss.in.served, l.served...)
	ss.windows = append(ss.windows, w)
	return w, nil
}

// dueAt is when stream event i is due at the workload's rate.
func (l *load) dueAt(i int) time.Time {
	return l.start.Add(time.Duration(float64(i) / l.ss.spec.rate * float64(time.Second)))
}

// runStream sends the event stream: open loop at the workload's rate, each
// event due at start + i/rate, or, at rate 0, as fast as backpressure
// allows with a Flush every satWindow events.
func (l *load) runStream() {
	rate := l.ss.spec.rate
	l.stream = make([]event.Event, 0, int(rate*l.d.Seconds())+1024)
	c := newCallers(l.ss.spec, l.seed)
	var ev event.Event
	fail := func(err error) {
		l.streamErrs++
		if l.streamErr == nil {
			l.streamErr = err
		}
	}
	for {
		now := time.Now()
		if !now.Before(l.deadline) {
			break
		}
		due := len(l.stream) + satWindow
		if rate > 0 {
			due = int(now.Sub(l.start).Seconds()*rate) + 1
		}
		for len(l.stream) < due {
			c.next(&ev)
			var t0 time.Time
			if rate > 0 || l.tr != nil {
				t0 = time.Now()
			}
			if rate > 0 {
				l.w.lateMs = append(l.w.lateMs, ms(t0.Sub(l.dueAt(len(l.stream)))))
			}
			err := l.p.router.Ingest(ev)
			if l.tr != nil {
				l.tr.ingest.add(us(time.Since(t0)))
			}
			if err != nil {
				fail(err)
			}
			l.stream = append(l.stream, ev)
		}
		if rate > 0 {
			if wait := time.Until(l.dueAt(len(l.stream))); wait > 0 {
				time.Sleep(wait)
			}
		} else if err := l.p.router.Flush(); err != nil {
			fail(err)
		}
	}
	if rate > 0 {
		l.w.behind = int(l.d.Seconds()*rate) - len(l.stream)
	}
}

// runEventProbes sends sync event probes open loop on their own schedule:
// each is sent in its own goroutine when due and timed from then. Probe i
// goes to reserved entity i mod eventProbeEntities and waits for the
// previous probe of that entity, so each entity's history has a fixed
// order.
func (l *load) runEventProbes() {
	n := int(l.d.Seconds() * eventProbeRate)
	l.probes, l.probeFirings, l.probeOK = make([]event.Event, n), make([]int, n), make([]bool, n)
	gen := event.NewGenerator(1, l.seed^0x9b0be)
	prev := make(map[uint64]chan struct{}, eventProbeEntities)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := l.start.Add(time.Duration(i) * (time.Second / eventProbeRate))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		entity := eventProbeBase + 1 + l.ss.probeSeq%eventProbeEntities
		l.ss.probeSeq++
		gen.NextFor(&l.probes[i], entity)
		after, done := prev[entity], make(chan struct{})
		prev[entity] = done
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(done)
			if after != nil {
				<-after
			}
			t0 := time.Now()
			fired, err := l.p.router.IngestSync(l.probes[i])
			now := time.Now()
			l.note(err)
			if err != nil {
				return
			}
			l.probeFirings[i], l.probeOK[i] = fired, true
			l.mu.Lock()
			l.w.eventMs = append(l.w.eventMs, ms(now.Sub(due)))
			l.w.eventAt = append(l.w.eventAt, due.Sub(l.start))
			l.mu.Unlock()
			if l.tr != nil {
				l.tr.probeDone(l.probes[i].Caller, ms(t0.Sub(due)), ms(now.Sub(t0)))
			}
		}(i)
	}
	wg.Wait()
}

// runFreshProbes sends freshness probes open loop: each ingests one
// never-seen entity, then polls COUNT WHERE entity_id = it until the scan
// sees it, timed from the send.
func (l *load) runFreshProbes() {
	n := int(l.d.Seconds() * freshProbeRate)
	l.fresh, l.freshOK = make([]event.Event, n), make([]bool, n)
	gen := event.NewGenerator(1, l.seed^0xf7e54)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if wait := time.Until(l.start.Add(time.Duration(i) * (time.Second / freshProbeRate))); wait > 0 {
			time.Sleep(wait)
		}
		l.ss.nextFresh++
		gen.NextFor(&l.fresh[i], freshBase+l.ss.nextFresh)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			if _, err := l.p.router.IngestSync(l.fresh[i]); err != nil {
				l.note(err)
				return
			}
			l.freshOK[i] = true
			polls, err := poll(l.p.coord, countQuery(vec.Eq, l.fresh[i].Caller), 1, 5*time.Second, l.sent)
			lat := time.Since(t0)
			l.note(err)
			l.mu.Lock()
			l.w.freshPolls += polls
			if err == nil {
				l.w.freshMs = append(l.w.freshMs, ms(lat))
				l.w.freshAt = append(l.w.freshAt, t0.Sub(l.start))
			}
			l.mu.Unlock()
		}(i)
	}
	wg.Wait()
}

// runClient is one closed-loop Q1–Q7 client.
func (l *load) runClient(gen *workload.QueryGen) {
	for time.Now().Before(l.deadline) {
		q := gen.Next()
		l.sent(q)
		if l.tr != nil {
			l.tr.queryStart(q)
		}
		t0 := time.Now()
		res, err := l.p.coord.Execute(q)
		lat := time.Since(t0)
		if err == nil && res.Incomplete {
			err = errors.New("incomplete RTA result")
		}
		l.note(err)
		if err == nil {
			l.mu.Lock()
			l.w.rtaMs = append(l.w.rtaMs, ms(lat))
			l.w.rtaAt = append(l.w.rtaAt, t0.Sub(l.start))
			l.mu.Unlock()
			if l.tr != nil {
				l.tr.queryDone(q, lat)
			}
		}
		if l.ss.spec.think > 0 {
			time.Sleep(l.ss.spec.think)
		}
	}
}

// sampleRSS records the server's resident set size every 100 ms.
func (l *load) sampleRSS() {
	for t := l.start; t.Before(l.deadline); t = t.Add(100 * time.Millisecond) {
		if wait := time.Until(t); wait > 0 {
			time.Sleep(wait)
		}
		if mb, err := l.ss.srv.rssMB(); err == nil {
			l.w.rssMB = append(l.w.rssMB, mb)
		}
	}
}

// poll executes q, a COUNT, until it reaches want, returning the number of
// polls. sent, if not nil, is called before each execution.
func poll(coord *rta.Coordinator, q *query.Query, want int64, timeout time.Duration, sent func(*query.Query)) (int, error) {
	end := time.Now().Add(timeout)
	for polls := 1; ; polls++ {
		if sent != nil {
			sent(q)
		}
		res, err := coord.Execute(q)
		if err != nil {
			return polls, err
		}
		if countOf(res) >= want {
			return polls, nil
		}
		if time.Now().After(end) {
			return polls, fmt.Errorf("count %d, want %d after %v", countOf(res), want, timeout)
		}
	}
}

// awaitBase waits until a durable server has written its first checkpoint,
// the full base, so every window sees only the incremental checkpoints of
// steady state rather than a base in some runs and not in others.
func (ss *session) awaitBase() error {
	if !ss.spec.durable {
		return nil
	}
	end := time.Now().Add(3 * ckptEvery)
	for {
		m, err := ss.srv.scrape()
		if err != nil {
			return err
		}
		if m["aim_ckpt_total"] >= 1 {
			return nil
		}
		if time.Now().After(end) {
			return fmt.Errorf("no checkpoint after %v", 3*ckptEvery)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fence makes every event sent so far visible to scans: one sync event per
// partition on a reserved entity, then a wait until scans see all of them.
// A partition merges its whole delta at once, so once its fence entity is
// visible, every earlier event of that partition is too.
func (ss *session) fence() (*pipeline, error) {
	p, err := newPipeline(ss.evCli, ss.qCli)
	if err != nil {
		return nil, err
	}
	gen := event.NewGenerator(1, ss.seed^0xfe9ce)
	var ev event.Event
	for _, id := range fenceEntities(partitions) {
		gen.NextFor(&ev, id)
		if _, err := p.router.IngestSync(ev); err != nil {
			p.cl.Close()
			return nil, fmt.Errorf("fence: %w", err)
		}
		ss.in.fences = append(ss.in.fences, ev)
	}
	if _, err := poll(p.coord, countQuery(vec.Gt, fenceBase), partitions, 30*time.Second, nil); err != nil {
		p.cl.Close()
		return nil, fmt.Errorf("fence: %w", err)
	}
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
