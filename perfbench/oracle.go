package main

import (
	"fmt"

	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// oracleQueries are Q1–Q7 at fixed parameters plus a global COUNT/SUM,
// sent to the server at the end of a run and run on the replay's matrix.
func oracleQueries(sch *schema.Schema) ([]*query.Query, error) {
	g, err := workload.NewQueryGen(sch, 1)
	if err != nil {
		return nil, err
	}
	calls, err := sch.AttrIndex("calls_any_week_count")
	if err != nil {
		return nil, err
	}
	cost, err := sch.AttrIndex("cost_any_week_sum")
	if err != nil {
		return nil, err
	}
	global := &query.Query{
		Aggs: []query.AggExpr{
			{Op: query.OpCount},
			{Op: query.OpSum, Attr: calls},
			{Op: query.OpSum, Attr: cost},
		},
		GroupBy: -1,
	}
	qs := []*query.Query{g.Q1(1), g.Q2(3), g.Q3(), g.Q4(3, 60), g.Q5(0, 1), g.Q6(0), g.Q7(0), global}
	for i, q := range qs {
		q.ID = uint64(i + 1)
	}
	return qs, nil
}

// exactAgg reports whether aggregate a of q must match bit for bit: counts,
// and sums, minima and maxima of integer attributes.
func exactAgg(sch *schema.Schema, a query.AggExpr) bool {
	switch a.Op {
	case query.OpCount:
		return true
	case query.OpSum, query.OpMin, query.OpMax:
		return sch.Attrs[a.Attr].Type != schema.TypeFloat64
	}
	return false
}

func isArg(op query.AggOp) bool {
	switch op {
	case query.OpArgMin, query.OpArgMax, query.OpArgMinRatio, query.OpArgMaxRatio:
		return true
	}
	return false
}

// argValue is the value an arg aggregate ranks entity by on the replay,
// and whether the entity exists and passes the query's filter.
func (r *replay) argValue(q *query.Query, a query.AggExpr, entity uint64) (float64, bool) {
	v, rec, ok := r.value(entity, a.Attr)
	if !ok || !query.NewRowEvaluator(r.sch, r.dims.Store).Matches(q, rec) {
		return 0, false
	}
	if a.Op == query.OpArgMinRatio || a.Op == query.OpArgMaxRatio {
		den, _, _ := r.value(entity, a.Attr2)
		if den == 0 {
			return 0, false
		}
		v /= den
	}
	return v, true
}

// compareResult checks a server result against the replay's. Group keys
// must match exactly, aggregates per exactAgg or within floatTol. An arg
// aggregate may name a different entity only on a tie: the server's entity
// must pass the filter and rank exactly as the replay's.
func (r *replay) compareResult(q *query.Query, got, want *query.Result) error {
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("query %d: %d rows, replay has %d", q.ID, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		g, w := got.Rows[i], want.Rows[i]
		if g.Key != w.Key {
			return fmt.Errorf("query %d row %d: key %+v, replay has %+v", q.ID, i, g.Key, w.Key)
		}
		if len(g.Values) != len(w.Values) {
			return fmt.Errorf("query %d row %d: %d values, replay has %d", q.ID, i, len(g.Values), len(w.Values))
		}
		for j := range g.Values {
			if j < len(q.Aggs) && isArg(q.Aggs[j].Op) {
				if g.Values[j] == w.Values[j] {
					continue
				}
				gv, gok := r.argValue(q, q.Aggs[j], uint64(g.Values[j]))
				wv, wok := r.argValue(q, q.Aggs[j], uint64(w.Values[j]))
				if !gok || !wok || gv != wv {
					return fmt.Errorf("query %d row %d agg %d: entity %v (value %v), replay has %v (value %v)",
						q.ID, i, j, g.Values[j], gv, w.Values[j], wv)
				}
				continue
			}
			exact := j < len(q.Aggs) && exactAgg(r.sch, q.Aggs[j])
			if !valuesEqual(g.Values[j], w.Values[j], exact) {
				return fmt.Errorf("query %d row %d value %d: %v, replay has %v", q.ID, i, j, g.Values[j], w.Values[j])
			}
		}
	}
	return nil
}
