package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/archive"
	"repro/internal/columnmap"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/query"
	"repro/internal/rules"
	"repro/internal/schema"
	"repro/internal/workload"
)

// replay re-executes a run's recorded events and queries single-threaded
// and in process, through the layers' public functions, with the server's
// schema, dimensions and rules. Its final matrix is the oracle; its timings
// are the per-layer busy times.
type replay struct {
	sch    *schema.Schema
	dims   *workload.Dimensions
	engine *rules.Engine
	groups *schema.GroupSet
	parts  []*core.Partition
	tiered bool
	arch   *archive.Archive // nil for in-memory workloads
	// streamRules evaluates the rules on batched stream events too. The
	// matrix does not depend on rules and no probe entity sees a stream
	// event, so only the per-layer rules figures need it.
	streamRules bool

	// mergeEvery is how many applied events trigger a merge step of every
	// partition, so merges see deltas the size the server's did.
	mergeEvery int
	sinceMerge int
	buf        []byte

	events, runs, firings                     int
	codec, logAppend, apply, evalRules        time.Duration
	merge, freeze                             time.Duration
	merged, freezes                           int
	queries, rounds, preds, evaluated, folded int
	qCodec, compile, partialMerge, finalize   time.Duration
	scanHot, scanFrozen                       time.Duration
	hotBuckets, frozenBuckets                 int
}

func newReplay(sch *schema.Schema, seed int64, tiered, streamRules bool, walDir string) (*replay, error) {
	dims, err := workload.BuildDimensions(seed)
	if err != nil {
		return nil, err
	}
	rs, err := workload.BuildRules(sch, ruleCount, seed)
	if err != nil {
		return nil, err
	}
	eng, err := rules.NewEngine(sch, rs, false)
	if err != nil {
		return nil, err
	}
	r := &replay{
		sch: sch, dims: dims, engine: eng, tiered: tiered, streamRules: streamRules,
		groups:     sch.GroupSetForAttrs(eng.ReadAttrs()),
		mergeEvery: 1024,
		buf:        make([]byte, 256*event.WireSize),
	}
	for i := 0; i < partitions; i++ {
		p := core.NewPartition(sch, 0, dims.Factory(sch))
		if tiered {
			p.EnableTiering(core.TierConfig{Enabled: true, ColdAfterEpochs: core.DefaultColdAfterEpochs})
		}
		r.parts = append(r.parts, p)
	}
	if walDir != "" {
		if r.arch, err = archive.Open(walDir, archive.Options{}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *replay) close() error {
	if r.arch != nil {
		return r.arch.Close()
	}
	return nil
}

func (r *replay) part(entity uint64) *core.Partition {
	return r.parts[partitionOf(entity, len(r.parts))]
}

// ingest replays a stream in consecutive wire batches of mean size batch,
// the way a storage node applies a batch: decode, log, stable-sort by
// caller, then one ApplyEventBatch per same-caller run with rules per
// event.
func (r *replay) ingest(evs []event.Event, batch float64) error {
	for _, n := range chunkSizes(len(evs), batch) {
		if len(r.buf) < n*event.WireSize {
			r.buf = make([]byte, n*event.WireSize)
		}
		chunk := make([]event.Event, n)
		t0 := time.Now()
		for i := range evs[:n] {
			evs[i].Encode(r.buf[i*event.WireSize:])
		}
		for i := range chunk {
			if err := chunk[i].Decode(r.buf[i*event.WireSize:]); err != nil {
				return err
			}
		}
		t1 := time.Now()
		r.codec += t1.Sub(t0)
		if r.arch != nil {
			if _, _, err := r.arch.AppendBatch(chunk); err != nil {
				return err
			}
			r.logAppend += time.Since(t1)
		}
		slices.SortStableFunc(chunk, func(a, b event.Event) int {
			switch {
			case a.Caller < b.Caller:
				return -1
			case a.Caller > b.Caller:
				return 1
			}
			return 0
		})
		for i := 0; i < n; {
			j := i + 1
			for j < n && chunk[j].Caller == chunk[i].Caller {
				j++
			}
			r.applyRun(chunk[i:j])
			i = j
		}
		evs = evs[n:]
	}
	return nil
}

func (r *replay) applyRun(run []event.Event) {
	var eval time.Duration
	var onApply func(ev *event.Event, rec schema.Record)
	if r.streamRules {
		onApply = func(ev *event.Event, rec schema.Record) {
			t := time.Now()
			r.firings += len(r.engine.Evaluate(ev, rec))
			eval += time.Since(t)
		}
	}
	t0 := time.Now()
	r.part(run[0].Caller).ApplyEventBatch(run, r.groups, onApply)
	r.apply += time.Since(t0) - eval
	r.evalRules += eval
	r.events += len(run)
	r.runs++
	r.applied(len(run))
}

// one replays a synchronous event the way the node's per-event path does
// and returns its rule firings.
func (r *replay) one(ev event.Event) (int, error) {
	t0 := time.Now()
	ev.Encode(r.buf)
	var dec event.Event
	if err := dec.Decode(r.buf); err != nil {
		return 0, err
	}
	t1 := time.Now()
	r.codec += t1.Sub(t0)
	if r.arch != nil {
		if _, err := r.arch.Append(&dec); err != nil {
			return 0, err
		}
	}
	t2 := time.Now()
	r.logAppend += t2.Sub(t1)
	rec := r.part(dec.Caller).ApplyEvent(&dec)
	t3 := time.Now()
	n := len(r.engine.Evaluate(&dec, rec))
	r.apply += t3.Sub(t2)
	r.evalRules += time.Since(t3)
	r.firings += n
	r.events++
	r.runs++
	r.applied(1)
	return n, nil
}

func (r *replay) applied(n int) {
	r.sinceMerge += n
	if r.sinceMerge >= r.mergeEvery {
		r.mergeAll()
	}
}

// mergeAll runs one merge step on every partition: the steps of
// Partition.MergeStep, timed apart so freezing is not billed to merging.
func (r *replay) mergeAll() {
	r.sinceMerge = 0
	for _, p := range r.parts {
		t0 := time.Now()
		sealed := p.SwitchDeltas()
		var err error
		sealed.Iterate(func(_ uint64, rec []uint64) {
			if e := p.Main().Upsert(rec); e != nil && err == nil {
				err = e
			}
			r.merged++
		})
		if err != nil {
			panic(fmt.Sprintf("replay merge: %v", err)) // arity is fixed by the schema
		}
		p.Main().AdvanceEpoch()
		t1 := time.Now()
		r.merge += t1.Sub(t0)
		if r.tiered {
			r.freezes += p.Main().FreezeCold(core.DefaultColdAfterEpochs, core.DefaultMaxFreezePerStep)
			r.freeze += time.Since(t1)
		}
	}
}

// scanRound runs one shared-scan round the way a node and the coordinator
// do: per partition a fused batch plan over every bucket, the node-level
// partial merge, the partial wire codec, then the coordinator's merge and
// finalize.
func (r *replay) scanRound(qs []*query.Query) ([]*query.Result, error) {
	t0 := time.Now()
	wire := make([]*query.Query, len(qs))
	for i, q := range qs {
		var err error
		if wire[i], err = query.DecodeQuery(query.EncodeQuery(q)); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	r.qCodec += t1.Sub(t0)
	plan, err := query.CompileBatch(r.sch, wire)
	if err != nil {
		return nil, err
	}
	r.compile += time.Since(t1)
	for _, q := range wire {
		for _, c := range q.Where {
			r.preds += len(c)
		}
	}
	r.evaluated += plan.NumEvaluated()
	r.folded += plan.NumDuplicates()

	ex := query.NewExecutor(r.sch, r.dims.Store)
	node := make([]*query.Partial, len(wire))
	for i, q := range wire {
		node[i] = query.NewPartial(q)
	}
	for _, p := range r.parts {
		partials := make([]*query.Partial, len(wire))
		for i, q := range wire {
			partials[i] = query.NewPartial(q)
		}
		for _, b := range p.ScanSnapshot() {
			if err := r.scanBucket(ex, b, plan, partials); err != nil {
				return nil, err
			}
		}
		plan.FoldDuplicates(partials)
		t := time.Now()
		for i, q := range wire {
			node[i].Merge(partials[i], q)
		}
		r.partialMerge += time.Since(t)
	}
	out := make([]*query.Result, len(wire))
	for i, q := range wire {
		t := time.Now()
		got, err := query.DecodePartial(query.EncodePartial(node[i]))
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		r.qCodec += t2.Sub(t)
		merged := query.NewPartial(q)
		merged.Merge(got, q)
		t3 := time.Now()
		r.partialMerge += t3.Sub(t2)
		out[i] = merged.Finalize(q)
		r.finalize += time.Since(t3)
	}
	r.queries += len(wire)
	r.rounds++
	return out, nil
}

func (r *replay) scanBucket(ex *query.Executor, b columnmap.Bucket, plan *query.BatchPlan, partials []*query.Partial) error {
	t := time.Now()
	err := ex.ProcessBucketBatch(b, plan, partials)
	d := time.Since(t)
	if b.Frozen() != nil {
		r.scanFrozen += d
		r.frozenBuckets++
	} else {
		r.scanHot += d
		r.hotBuckets++
	}
	return err
}

// value reads attribute a of entity from the replayed matrix.
func (r *replay) value(entity uint64, a int) (float64, []uint64, bool) {
	rec := make(schema.Record, r.sch.Slots)
	if _, ok := r.part(entity).Get(entity, rec); !ok {
		return 0, nil, false
	}
	bits := rec[r.sch.Attrs[a].Slot]
	switch r.sch.Attrs[a].Type {
	case schema.TypeFloat64:
		return math.Float64frombits(bits), rec, true
	case schema.TypeUint64:
		return float64(bits), rec, true
	default:
		return float64(int64(bits)), rec, true
	}
}
