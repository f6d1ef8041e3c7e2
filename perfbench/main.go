// Command perfbench is the AIM benchmark: it boots the shipping aimserver
// as a child process, drives it over loopback TCP with the cmd/aimload
// client stack, measures the paper's Table-4 KPIs from outside, checks the
// answers against an in-process replay, and prints one JSON result line.
//
// Run it from the repository root through run.sh, which builds both
// binaries:
//
//	bash perfbench/run.sh --workload paper-mix --seed 1 --seconds 15 --trace 0
//
// --trace 1 runs an untraced and a traced window on the same server and
// prints the per-layer metrics instead of the end-to-end ones. See
// README.md for the workloads and metrics.
package main

import (
	"bufio"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/workload"
)

// buildDir holds the binaries and the run's scratch files, relative to the
// repository root.
const buildDir = ".bench_build"

// setups is how many times an untraced run sets a server up; setup_s is
// their median and the last one is measured.
const setups = 3

// warmup is the unmeasured load a server runs before its first window,
// after a durable server's base checkpoint, so connections, the Go heap
// and the matrix are in steady state when measuring starts.
const warmup = 2 * time.Second

// maxSteal is the share of the host's CPU time the hypervisor may steal
// during a measurement window before the run is flagged as measured on a
// contended host. Stolen time slows the wall-clock figures by several
// times its own share (README.md), so such a run describes its neighbours
// more than the build. The flag is a note on a # line: it says nothing
// about the program's answers, which "correct" reports.
const maxSteal = 0.05

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	name, unit string
	value      float64
	note       string
	// info marks a metric printed for reading but left out of the JSON
	// result, which carries only metrics steady enough to gate on.
	info bool
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload name (paper-mix, ingest-sat, scan-large, scan-tiered)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 15, "measurement window in seconds")
		traced  = flag.Int("trace", 0, "1 = print per-layer metrics from a traced window")
	)
	flag.Parse()
	s, err := specByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("want --seconds >= 1 and --trace 0 or 1")
	}
	bin := filepath.Join(buildDir, "aimserver")
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("%v (run through perfbench/run.sh, which builds it)", err)
	}
	sch, err := workload.BuildSmallSchema()
	if err != nil {
		return err
	}
	scratch := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	d := time.Duration(*seconds) * time.Second

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", s.name, *seed, *seconds, *traced)
	fmt.Printf("# %s\n", stamp(bin, s))

	// Set-up: spawn -> ready -> preload flushed, repeated for a median.
	n := setups
	if *traced == 1 {
		n = 1
	}
	var setupS []float64
	var ss *session
	for i := 0; i < n; i++ {
		var dur time.Duration
		ss, dur, err = startSession(bin, filepath.Join(scratch, "data"), s, *seed, sch)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, dur.Seconds())
		if i < n-1 {
			if err := ss.close(); err != nil {
				return err
			}
		}
	}
	defer ss.close()
	if err := ss.awaitBase(); err != nil {
		return err
	}

	if _, err := ss.run(warmup, *seed+3, nil); err != nil {
		return err
	}
	var plain, tw *window
	if plain, err = ss.run(d, *seed+1, nil); err != nil {
		return err
	}
	if *traced == 1 {
		if tw, err = ss.run(d, *seed+2, newTracer()); err != nil {
			return err
		}
	}
	late := lateness(plain)
	behind := s.rate > 0 && (late.p99 >= 50 || float64(plain.behind) >= 0.01*s.rate*d.Seconds())
	fmt.Printf("# host: %.1f%% of the CPU time was stolen by the hypervisor during the window\n", 100*plain.steal)
	fmt.Printf("# generator: %.2f cores, lateness p99=%.3fms max=%.3fms, %d events behind\n",
		plain.genCores, late.p99, late.max, plain.behind)

	// End of run: fence, then ask the server the oracle queries.
	res, err := ss.finish()
	if err != nil {
		return err
	}
	if err := ss.close(); err != nil {
		return err
	}

	rep, problems, err := replayRun(ss, sch, scratch, res, *traced == 1)
	if err != nil {
		return err
	}
	for _, w := range []*window{plain, tw} {
		if w != nil && w.failed > 0 {
			fmt.Printf("# %d of %d operations failed, first: %v\n", w.failed, w.attempted, w.errs)
		}
	}
	// The figures of a run whose generator fell behind, or whose host was
	// contended, describe the host more than the build. Such a run is
	// flagged INVALID here; its answers are still checked by the oracle
	// alone, which is what "correct" reports.
	var invalid []string
	if behind {
		invalid = append(invalid, fmt.Sprintf("the open-loop generator fell behind its schedule (lateness p99 %.1f ms, %d events unsent)", late.p99, plain.behind))
	}
	if plain.steal > maxSteal {
		invalid = append(invalid, fmt.Sprintf("contended host: %.1f%% of the CPU time stolen, above %g%%", 100*plain.steal, 100*maxSteal))
	}
	if tw != nil && tw.tr.nestErrors > 0 {
		invalid = append(invalid, fmt.Sprintf("trace: %d child spans longer than their parent", tw.tr.nestErrors))
	}
	for _, v := range invalid {
		fmt.Println("# INVALID:", v)
	}
	for _, p := range problems {
		fmt.Println("# FAIL:", p)
	}
	if len(problems) == 0 {
		fmt.Println("# oracle: ok")
	}

	var ms []metric
	attempted, failed := plain.attempted, plain.failed
	if tw == nil {
		ms = endToEnd(s, plain, d, median(setupS))
		if s.name == "paper-mix" {
			fmt.Println("# " + paperKPIs(ms))
		}
	} else {
		ms = perLayer(s, plain, tw, rep, d)
		attempted += tw.attempted
		failed += tw.failed
	}
	fmt.Printf("# error_frac %.6g (%d of %d operations failed)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	out := map[string]any{
		"correct":   len(problems) == 0,
		"attempted": attempted,
		"failed":    failed,
	}
	mm := make(map[string]any, len(ms))
	for _, m := range ms {
		if err := validName(m.name); err != nil {
			return err
		}
		if m.info {
			fmt.Printf("# %-32s %14.6g %-6s %s (not gated)\n", m.name, m.value, m.unit, m.note)
			continue
		}
		fmt.Printf("%-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		mm[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = mm
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// paperKPIs checks a paper-mix result against the SLA of the paper's
// Table 4: t_ESP <= 10 ms, t_RTA <= 100 ms, t_fresh <= 1 s, f_ESP >= 10k
// events/s, f_RTA >= 100 queries/s.
func paperKPIs(ms []metric) string {
	val := map[string]float64{}
	for _, m := range ms {
		val[m.name] = m.value
	}
	line := "paper KPIs:"
	for _, k := range []struct {
		label, metric string
		limit         float64
		atMost        bool
	}{
		{"t_ESP", "event_p99_ms", 10, true},
		{"t_RTA", "rta_p99_ms", 100, true},
		{"t_fresh", "fresh_p95_ms", 1000, true},
		{"f_ESP", "ingest_eps", 10_000, false},
		{"f_RTA", "rta_qps", 100, false},
	} {
		v := val[k.metric]
		ok, rel := v >= k.limit, ">="
		if k.atMost {
			ok, rel = v <= k.limit, "<="
		}
		line += fmt.Sprintf(" %s %s=%.4g %s %g %s;", k.label, k.metric, v, rel, k.limit, map[bool]string{true: "PASS", false: "FAIL"}[ok])
	}
	return line
}

// stamp names the build and host that produced a result.
func stamp(bin string, s spec) string {
	rev, dirty, gover := "unknown", "unknown", "unknown"
	if bi, err := buildinfo.ReadFile(bin); err == nil {
		gover = bi.GoVersion
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				dirty = kv.Value
			}
		}
	}
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	dur := "in-memory"
	if s.durable {
		dur = fmt.Sprintf("wal fsync=off checkpoint-every=%v", ckptEvery)
	}
	return fmt.Sprintf("aimserver vcs.revision=%s vcs.modified=%s go=%s; host nproc=%d cpu=%q; server partitions=%d esp=%d rules=%d %s tiered=%v",
		rev, dirty, gover, runtime.NumCPU(), model, partitions, espThreads, ruleCount, dur, s.tiered)
}

type late struct{ p99, max float64 }

func lateness(w *window) late {
	if len(w.lateMs) == 0 {
		return late{}
	}
	xs := append([]float64(nil), w.lateMs...)
	p, _ := percentile(xs, 0.99)
	return late{p99: p.Value, max: xs[len(xs)-1]}
}

// serverResults is what the server reported at the end of a run.
type serverResults struct {
	queries []*query.Query
	results []*query.Result
	applied float64 // aim_core_events_total
}

// finish fences the run and sends the oracle queries to the server.
func (ss *session) finish() (*serverResults, error) {
	p, err := ss.fence()
	if err != nil {
		return nil, err
	}
	defer p.cl.Close()
	qs, err := oracleQueries(ss.sch)
	if err != nil {
		return nil, err
	}
	out := &serverResults{queries: qs}
	for _, q := range qs {
		res, err := p.coord.Execute(q)
		if err != nil {
			return nil, fmt.Errorf("oracle query %d: %w", q.ID, err)
		}
		out.results = append(out.results, res)
	}
	m, err := ss.srv.scrape()
	if err != nil {
		return nil, err
	}
	out.applied = m["aim_core_events_total"]
	return out, nil
}
