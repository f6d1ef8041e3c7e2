package query

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/columnmap"
	"repro/internal/dimension"
	"repro/internal/schema"
	"repro/internal/vec"
)

// Executor evaluates queries over ColumnMap buckets. One Executor belongs to
// one scan goroutine (see the package doc for the thread-confinement
// contract): it owns reusable bitmask scratch buffers, the batch-plan mask
// slab, and a dimension lookup cache, so steady-state bucket processing is
// allocation-free for non-grouped queries.
type Executor struct {
	sch  *schema.Schema
	dims *dimension.Store

	acc  []uint64 // DNF accumulator mask
	conj []uint64 // current conjunct mask
	pred []uint64 // current predicate mask
	slab []uint64 // per-bucket mask cache for batch plans (one mask per distinct predicate)
	idx  []int32  // matched-record index slab for the grouped path
	// aggCols holds the grouped path's per-aggregate input columns for the
	// current bucket: value column, then ratio denominator column.
	aggCols [][]uint64

	// gcache holds one group-row cache per batch-query position: raw group
	// column value -> the partial's accumulator row. It replaces the
	// per-record GroupKey (string hash) map lookup of the grouped path with
	// a uint64 one while a scan pass runs.
	gcache []groupCache

	// Cold-tier scan support: per-column pooled scratch for frozen buckets
	// whose shape has no direct chunk kernel (and for per-record paths like
	// group-by and arg aggregates). Keyed by the FrozenBucket pointer, so a
	// column is decompressed at most once per bucket per pass and the
	// backing arrays are reused across buckets.
	thawRef   *columnmap.FrozenBucket
	thawBufs  [][]uint64
	thawValid []bool

	dimCache map[DimJoin]map[uint64]string
}

// groupCache memoizes group-column values to accumulator rows of one
// partial. It stays valid as long as it observes the same (partial,
// generation) pair; pooled partials bump their generation on Reset.
type groupCache struct {
	p    *Partial
	gen  uint64
	rows map[uint64][]Cell // nil row = group dropped (failed dim/dict join)
}

// rowsFor returns the cache's row map, emptied if the cache was bound to a
// different partial or an earlier generation of p.
func (gc *groupCache) rowsFor(p *Partial) map[uint64][]Cell {
	if gc.rows == nil {
		gc.rows = make(map[uint64][]Cell)
	} else if gc.p != p || gc.gen != p.gen {
		for k := range gc.rows {
			delete(gc.rows, k)
		}
	}
	gc.p, gc.gen = p, p.gen
	return gc.rows
}

// NewExecutor returns an executor bound to a schema and the node's
// replicated dimension tables (dims may be nil if no query joins).
func NewExecutor(sch *schema.Schema, dims *dimension.Store) *Executor {
	return &Executor{sch: sch, dims: dims, dimCache: make(map[DimJoin]map[uint64]string)}
}

func (ex *Executor) ensureScratch(n int) {
	w := vec.MaskWords(n)
	if cap(ex.acc) < w {
		ex.acc = make([]uint64, w)
		ex.conj = make([]uint64, w)
		ex.pred = make([]uint64, w)
	}
	ex.acc = ex.acc[:cap(ex.acc)][:w]
	ex.conj = ex.conj[:cap(ex.conj)][:w]
	ex.pred = ex.pred[:cap(ex.pred)][:w]
}

// ensureSlab returns the mask slab resliced to hold words words, growing the
// backing array only when a bigger batch or bucket arrives.
func (ex *Executor) ensureSlab(words int) []uint64 {
	if cap(ex.slab) < words {
		ex.slab = make([]uint64, words)
	}
	ex.slab = ex.slab[:cap(ex.slab)][:words]
	return ex.slab
}

// ProcessBucket evaluates q over one bucket and folds matches into p. This
// is the process_bucket step of the paper's shared scan (Algorithm 5).
//
// For whole-batch processing with cross-query predicate sharing, compile the
// batch with CompileBatch and use ProcessBucketBatch instead.
func (ex *Executor) ProcessBucket(b columnmap.Bucket, q *Query, p *Partial) error {
	n := b.N
	if n == 0 {
		return nil
	}
	ex.ensureScratch(n)

	// Filter: DNF over word-packed bitmasks.
	if len(q.Where) == 0 {
		vec.FillMask(ex.acc, n)
	} else {
		vec.ZeroMask(ex.acc)
		for _, c := range q.Where {
			for pi, pr := range c {
				if err := ex.evalPredicate(b, n, pr, ex.pred); err != nil {
					return err
				}
				if pi == 0 {
					vec.CopyMask(ex.conj, ex.pred)
				} else {
					vec.And(ex.conj, ex.pred)
				}
			}
			vec.Or(ex.acc, ex.conj)
		}
	}
	return ex.aggregate(b, q, p, ex.acc, nil)
}

// aggregate folds the records selected by mask into p. gc may be nil; the
// batch path passes a per-query group cache.
func (ex *Executor) aggregate(b columnmap.Bucket, q *Query, p *Partial, mask []uint64, gc *groupCache) error {
	if q.GroupBy < 0 {
		ex.aggregateGlobal(b, q, p, mask)
		return nil
	}
	return ex.aggregateGrouped(b, q, p, mask, gc)
}

// evalPredicate fills mask with the predicate result over the bucket.
// Frozen buckets are evaluated directly on the compressed chunks; shapes
// without a direct kernel decompress into the pooled scratch and run the
// raw kernels.
func (ex *Executor) evalPredicate(b columnmap.Bucket, n int, pr Predicate, mask []uint64) error {
	if pr.Attr < 0 || pr.Attr >= ex.sch.NumAttrs() {
		return fmt.Errorf("query: predicate attribute %d out of range", pr.Attr)
	}
	if fb := b.Frozen(); fb != nil {
		ch := fb.Chunk(pr.Attr)
		var ok bool
		switch ex.sch.Attrs[pr.Attr].Type {
		case schema.TypeInt64:
			ok = vec.CmpChunkInt(ch, n, pr.Op, int64(pr.Bits), mask)
		case schema.TypeUint64, schema.TypeDictString:
			ok = vec.CmpChunkUint(ch, n, pr.Op, pr.Bits, mask)
		case schema.TypeFloat64:
			ok = vec.CmpChunkFloat(ch, n, pr.Op, math.Float64frombits(pr.Bits), mask)
		}
		if ok {
			return nil
		}
	}
	col := ex.col(b, pr.Attr)
	switch ex.sch.Attrs[pr.Attr].Type {
	case schema.TypeInt64:
		vec.CmpInt(col, n, pr.Op, int64(pr.Bits), mask)
	case schema.TypeUint64, schema.TypeDictString:
		vec.CmpUint(col, n, pr.Op, pr.Bits, mask)
	case schema.TypeFloat64:
		vec.CmpFloat(col, n, pr.Op, math.Float64frombits(pr.Bits), mask)
	}
	return nil
}

// col returns column c of the bucket for per-record access: the hot slab
// directly, or a pooled decompressed copy for frozen buckets.
func (ex *Executor) col(b columnmap.Bucket, c int) []uint64 {
	fb := b.Frozen()
	if fb == nil {
		return b.Col(c)
	}
	if ex.thawBufs == nil {
		ex.thawBufs = make([][]uint64, ex.sch.Slots)
		ex.thawValid = make([]bool, ex.sch.Slots)
	}
	if ex.thawRef != fb {
		ex.thawRef = fb
		for i := range ex.thawValid {
			ex.thawValid[i] = false
		}
	}
	if !ex.thawValid[c] {
		ex.thawBufs[c] = fb.DecompressCol(c, ex.thawBufs[c])
		ex.thawValid[c] = true
	}
	return ex.thawBufs[c][:b.N]
}

// aggregateGlobal is the vectorized single-group path.
func (ex *Executor) aggregateGlobal(b columnmap.Bucket, q *Query, p *Partial, mask []uint64) {
	matched := vec.Count(mask)
	if matched == 0 {
		return
	}
	cells := p.cells(GroupKey{})
	for i, a := range q.Aggs {
		cell := &cells[i]
		cell.Count += matched
		switch a.Op {
		case OpCount:
			// count already folded in
		case OpSum, OpAvg:
			cell.Sum += ex.maskedSum(b, a.Attr, mask)
		case OpMin:
			if v, ok := ex.maskedMin(b, a.Attr, mask); ok && v < cell.Min {
				cell.Min = v
			}
		case OpMax:
			if v, ok := ex.maskedMax(b, a.Attr, mask); ok && v > cell.Max {
				cell.Max = v
			}
		default:
			ex.argScan(b, a, cell, mask)
		}
	}
}

func (ex *Executor) maskedSum(b columnmap.Bucket, attr int, mask []uint64) float64 {
	isFloat := ex.sch.Attrs[attr].Type == schema.TypeFloat64
	if fb := b.Frozen(); fb != nil {
		ch := fb.Chunk(attr)
		if !isFloat {
			return float64(vec.SumIntChunk(ch, mask))
		}
		if v, ok := vec.SumFloatChunk(ch, mask); ok {
			return v
		}
		return vec.SumFloat(ex.col(b, attr), mask)
	}
	col := b.Col(attr)
	if isFloat {
		return vec.SumFloat(col, mask)
	}
	return float64(vec.SumInt(col, mask))
}

func (ex *Executor) maskedMin(b columnmap.Bucket, attr int, mask []uint64) (float64, bool) {
	isFloat := ex.sch.Attrs[attr].Type == schema.TypeFloat64
	if fb := b.Frozen(); fb != nil {
		ch := fb.Chunk(attr)
		if !isFloat {
			v, any := vec.MinIntChunk(ch, mask)
			return float64(v), any
		}
		if v, any, ok := vec.MinFloatChunk(ch, mask); ok {
			return v, any
		}
		return vec.MinFloat(ex.col(b, attr), mask)
	}
	col := b.Col(attr)
	if isFloat {
		return vec.MinFloat(col, mask)
	}
	v, ok := vec.MinInt(col, mask)
	return float64(v), ok
}

func (ex *Executor) maskedMax(b columnmap.Bucket, attr int, mask []uint64) (float64, bool) {
	isFloat := ex.sch.Attrs[attr].Type == schema.TypeFloat64
	if fb := b.Frozen(); fb != nil {
		ch := fb.Chunk(attr)
		if !isFloat {
			v, any := vec.MaxIntChunk(ch, mask)
			return float64(v), any
		}
		if v, any, ok := vec.MaxFloatChunk(ch, mask); ok {
			return v, any
		}
		return vec.MaxFloat(ex.col(b, attr), mask)
	}
	col := b.Col(attr)
	if isFloat {
		return vec.MaxFloat(col, mask)
	}
	v, ok := vec.MaxInt(col, mask)
	return float64(v), ok
}

// argScan folds arg-style aggregates (entity-id of extreme value), which
// need per-record iteration. The mask words are walked inline rather than
// through vec.ForEach so the hot batch path stays closure- and
// allocation-free.
func (ex *Executor) argScan(b columnmap.Bucket, a AggExpr, cell *Cell, mask []uint64) {
	ids := ex.col(b, schema.SlotEntityID)
	col := ex.col(b, a.Attr)
	t := ex.sch.Attrs[a.Attr].Type
	var col2 []uint64
	var t2 schema.Type
	ratio := a.Op == OpArgMinRatio || a.Op == OpArgMaxRatio
	if ratio {
		col2 = ex.col(b, a.Attr2)
		t2 = ex.sch.Attrs[a.Attr2].Type
	}
	for wi, w := range mask {
		base := wi * 64
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			v := slotVal(col[i], t)
			if ratio {
				den := slotVal(col2[i], t2)
				if den == 0 {
					continue
				}
				v /= den
			}
			updateArg(cell, a.Op, ids[i], v)
		}
	}
}

func updateArg(cell *Cell, op AggOp, id uint64, v float64) {
	better := !cell.ArgSet
	if !better {
		switch op {
		case OpArgMax, OpArgMaxRatio:
			better = v > cell.ArgVal
		case OpArgMin, OpArgMinRatio:
			better = v < cell.ArgVal
		}
	}
	if better {
		cell.ArgKey, cell.ArgVal, cell.ArgSet = id, v, true
	}
}

// resolveGroup maps a raw group-column value to the partial's accumulator
// row, or nil when inner-join semantics drop the group (unmatched dimension
// or dictionary key).
func resolveGroup(p *Partial, gv uint64, dimMap map[uint64]string, dict *schema.Dict) []Cell {
	var key GroupKey
	switch {
	case dimMap != nil:
		s, ok := dimMap[gv]
		if !ok {
			return nil
		}
		key.S = s
	case dict != nil:
		s, ok := dict.String(gv)
		if !ok {
			return nil
		}
		key.S = s
	default:
		key.I = int64(gv)
	}
	return p.cells(key)
}

// aggregateGrouped is the per-record group-by path. With a group cache the
// (hash-expensive) GroupKey resolution runs once per distinct group value
// per scan pass; every further record is one uint64 map probe.
func (ex *Executor) aggregateGrouped(b columnmap.Bucket, q *Query, p *Partial, mask []uint64, gc *groupCache) error {
	gcol := ex.col(b, q.GroupBy)
	ids := ex.col(b, schema.SlotEntityID)
	var dimMap map[uint64]string
	if q.GroupDim != nil {
		var err error
		dimMap, err = ex.dimLookupMap(*q.GroupDim)
		if err != nil {
			return err
		}
	}
	var dict *schema.Dict
	if q.GroupDictNames {
		dict = ex.sch.Dict(q.GroupBy)
	}
	var rows map[uint64][]Cell
	if gc != nil {
		rows = gc.rowsFor(p)
	}
	// Resolve each aggregate's input columns once per bucket, not once per
	// matched record.
	cols := ex.aggCols[:0]
	for _, a := range q.Aggs {
		var vals, dens []uint64
		if a.Op != OpCount {
			vals = ex.col(b, a.Attr)
		}
		if a.Op == OpArgMinRatio || a.Op == OpArgMaxRatio {
			dens = ex.col(b, a.Attr2)
		}
		cols = append(cols, vals, dens)
	}
	ex.aggCols = cols
	ex.idx = vec.Indices(mask, ex.idx)
	for _, i32 := range ex.idx {
		i := int(i32)
		gv := gcol[i]
		var cells []Cell
		if rows != nil {
			var hit bool
			cells, hit = rows[gv]
			if !hit {
				cells = resolveGroup(p, gv, dimMap, dict)
				rows[gv] = cells // nil remembers dropped groups too
			}
		} else {
			cells = resolveGroup(p, gv, dimMap, dict)
		}
		if cells == nil {
			continue // inner-join semantics: unmatched keys drop out
		}
		for ai, a := range q.Aggs {
			cell := &cells[ai]
			cell.Count++
			switch a.Op {
			case OpCount:
			case OpSum, OpAvg:
				cell.Sum += slotVal(cols[2*ai][i], ex.sch.Attrs[a.Attr].Type)
			case OpMin:
				if v := slotVal(cols[2*ai][i], ex.sch.Attrs[a.Attr].Type); v < cell.Min {
					cell.Min = v
				}
			case OpMax:
				if v := slotVal(cols[2*ai][i], ex.sch.Attrs[a.Attr].Type); v > cell.Max {
					cell.Max = v
				}
			default:
				v := slotVal(cols[2*ai][i], ex.sch.Attrs[a.Attr].Type)
				if a.Op == OpArgMinRatio || a.Op == OpArgMaxRatio {
					den := slotVal(cols[2*ai+1][i], ex.sch.Attrs[a.Attr2].Type)
					if den == 0 {
						continue
					}
					v /= den
				}
				updateArg(cell, a.Op, ids[i], v)
			}
		}
	}
	return nil
}

// dimLookupMap returns (and caches) the key -> column-value map for a
// dimension join. Dimension tables are frozen, so the cache never goes
// stale.
func (ex *Executor) dimLookupMap(dj DimJoin) (map[uint64]string, error) {
	if m, ok := ex.dimCache[dj]; ok {
		return m, nil
	}
	if ex.dims == nil {
		return nil, fmt.Errorf("query: dimension join against %q but executor has no dimension store", dj.Table)
	}
	tab, err := ex.dims.Table(dj.Table)
	if err != nil {
		return nil, err
	}
	m := make(map[uint64]string, tab.Len())
	for _, k := range tab.Keys() {
		v, ok := tab.Lookup(k, dj.Column)
		if !ok {
			return nil, fmt.Errorf("query: dimension table %q has no column %q", dj.Table, dj.Column)
		}
		m[k] = v
	}
	ex.dimCache[dj] = m
	return m, nil
}

func slotVal(bits uint64, t schema.Type) float64 {
	switch t {
	case schema.TypeFloat64:
		return math.Float64frombits(bits)
	case schema.TypeUint64:
		return float64(bits)
	default:
		return float64(int64(bits))
	}
}
