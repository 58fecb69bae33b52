package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements perfbench compare: for every workload and
// end-to-end metric it prints each side's median and quartiles and a
// verdict, judged against the metric's bound in BENCHMARK.json. Both
// files must come from the same Params and host; a side's incorrect
// runs and failed operations are printed per workload, and when the new
// side has more of either, every verdict of that workload is invalid.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [-bench BENCHMARK.json] OLD.jsonl NEW.jsonl")
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	old, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := sameSetting(old, cur); err != nil {
		return err
	}
	for _, w := range workloadsOf(old, cur) {
		so, sn := sideOf(old[w]), sideOf(cur[w])
		invalid := sn.incorrect > so.incorrect || sn.failRatio() > so.failRatio()
		fmt.Printf("%s: old %s; new %s", w, so, sn)
		if invalid {
			fmt.Print("; invalid: the new side has more incorrect runs or failed operations")
		}
		fmt.Println()
		fmt.Printf("  %-16s %-6s %24s %24s %8s  %s\n", "metric", "unit", "old median [q1, q3]", "new median [q1, q3]", "change", "verdict")
		for _, m := range spec.EndToEnd {
			a, b := values(so.correct, m.Name), values(sn.correct, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("  %-16s %-6s missing on one side\n", m.Name, m.Unit)
				continue
			}
			qa, qb := quartiles(a), quartiles(b)
			change := (qb[1] - qa[1]) / qa[1]
			v := verdict(a, b, m.Better == "lower", m.Bound)
			if invalid {
				v = "invalid"
			}
			fmt.Printf("  %-16s %-6s %24s %24s %+7.1f%%  %s\n", m.Name, m.Unit,
				fmt.Sprintf("%.4g [%.4g, %.4g]", qa[1], qa[0], qa[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", qb[1], qb[0], qb[2]),
				100*change, v)
		}
	}
	return nil
}

// readRecords loads a result file's untraced runs, grouped by workload.
func readRecords(path string) (map[string][]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]Record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// setting is what two runs must share to be comparable: the fixed
// parameters and the host's shape.
type setting struct {
	Params   Params
	GOARCH   string
	NumCPU   int
	CPUModel string
}

func settingOf(r Record) setting {
	return setting{r.Params, r.Stamp.GOARCH, r.Stamp.NumCPU, r.Stamp.CPUModel}
}

// sameSetting returns an error unless every run of both files has the
// same setting.
func sameSetting(files ...map[string][]Record) error {
	var first *setting
	for _, recs := range files {
		for _, rs := range recs {
			for _, r := range rs {
				s := settingOf(r)
				if first == nil {
					first = &s
				} else if s != *first {
					return fmt.Errorf("runs differ in parameters or host (%+v against %+v); they are not comparable", s, *first)
				}
			}
		}
	}
	return nil
}

// side is one file's runs of one workload.
type side struct {
	correct           []Record
	runs, incorrect   int
	attempted, failed int
}

func sideOf(rs []Record) side {
	s := side{runs: len(rs)}
	for _, r := range rs {
		s.attempted += r.Line.Attempted
		s.failed += r.Line.Failed
		if r.Line.Correct {
			s.correct = append(s.correct, r)
		} else {
			s.incorrect++
		}
	}
	return s
}

// failRatio is failed over attempted operations; attempted grows with
// the program's speed, so counts alone would not compare.
func (s side) failRatio() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

func (s side) String() string {
	return fmt.Sprintf("%d runs, %d incorrect, %d of %d operations failed", s.runs, s.incorrect, s.failed, s.attempted)
}

func workloadsOf(a, b map[string][]Record) []string {
	seen := map[string]bool{}
	for w := range a {
		seen[w] = true
	}
	for w := range b {
		seen[w] = true
	}
	return sortedKeys(seen)
}

func values(rs []Record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Line.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns q1, median and q3 the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the benchmark and any script reading its results agree.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	n, m := 4, len(s)+1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return q
}

// verdict judges new runs b against old runs a, after the method the
// benchmark's README describes:
//   - worse: the median moved the wrong way by more than bound, and
//     either both sides' quartile spreads are within bound or every new
//     run is worse than every old run;
//   - better: the median moved the right way by more than the old
//     side's own quartile spread and the new side wins at least nine
//     tenths of all (old, new) pairs;
//   - unresolved: a spread is wider than bound and no side dominates;
//   - within-bound: none of the above.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	qa, qb := quartiles(a), quartiles(b)
	worse := (qb[1] - qa[1]) / qa[1]
	if !lowerBetter {
		worse = -worse
	}
	spreadA := (qa[2] - qa[0]) / qa[1]
	spreadB := (qb[2] - qb[0]) / qb[1]
	wins, losses, pairs := 0, 0, 0
	for _, x := range a {
		for _, y := range b {
			pairs++
			if (lowerBetter && y < x) || (!lowerBetter && y > x) {
				wins++
			} else if y != x {
				losses++
			}
		}
	}
	switch {
	case worse > bound && ((spreadA <= bound && spreadB <= bound) || losses == pairs):
		return "worse"
	case -worse > spreadA && 10*wins >= 9*pairs:
		return "better"
	case (spreadA > bound || spreadB > bound) && wins != pairs && losses != pairs:
		return "unresolved"
	}
	return "within-bound"
}
