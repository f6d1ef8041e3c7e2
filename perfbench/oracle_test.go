package main

import (
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
)

func TestCompareResultTolerance(t *testing.T) {
	sch, err := workload.BuildSmallSchema()
	if err != nil {
		t.Fatal(err)
	}
	calls := sch.MustAttrIndex("calls_any_week_count")
	cost := sch.MustAttrIndex("cost_any_week_sum")
	q := &query.Query{
		ID: 9,
		Aggs: []query.AggExpr{
			{Op: query.OpCount},
			{Op: query.OpSum, Attr: calls},
			{Op: query.OpSum, Attr: cost},
		},
		GroupBy: calls,
		Derived: []query.Ratio{{Num: 2, Den: 1}},
	}
	r := &replay{sch: sch}
	row := func(k int64, vals ...float64) query.ResultRow {
		return query.ResultRow{Key: query.GroupKey{I: k}, Values: vals}
	}
	want := &query.Result{Rows: []query.ResultRow{row(1, 10, 10, 123.45, 12.345), row(2, 5, 10, 67.8, 6.78)}}

	for _, c := range []struct {
		name string
		got  *query.Result
		bad  string // substring of the error, "" for a match
	}{
		{"identical", want, ""},
		{"float sum within 1e-9", &query.Result{Rows: []query.ResultRow{
			row(1, 10, 10, 123.45*(1+3e-10), 12.345*(1-3e-10)), row(2, 5, 10, 67.8, 6.78)}}, ""},
		{"float sum beyond 1e-9", &query.Result{Rows: []query.ResultRow{
			row(1, 10, 10, 123.45*(1+3e-9), 12.345), row(2, 5, 10, 67.8, 6.78)}}, "value 2"},
		{"count off by one", &query.Result{Rows: []query.ResultRow{
			row(1, 11, 10, 123.45, 12.345), row(2, 5, 10, 67.8, 6.78)}}, "value 0"},
		{"integer sum off in the last bit", &query.Result{Rows: []query.ResultRow{
			row(1, 10, 10+1e-12, 123.45, 12.345), row(2, 5, 10, 67.8, 6.78)}}, "value 1"},
		{"group key", &query.Result{Rows: []query.ResultRow{
			row(1, 10, 10, 123.45, 12.345), row(3, 5, 10, 67.8, 6.78)}}, "key"},
		{"row count", &query.Result{Rows: want.Rows[:1]}, "rows"},
	} {
		err := r.compareResult(q, c.got, want)
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("%s: unexpected mismatch: %v", c.name, err)
		case c.bad != "" && err == nil:
			t.Errorf("%s: mismatch not detected", c.name)
		case c.bad != "" && !strings.Contains(err.Error(), c.bad):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.bad)
		}
	}
}
