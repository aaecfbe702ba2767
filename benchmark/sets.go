package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// contract is BENCHMARK.json, as far as this program reads it.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gated `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// gated is an end-to-end metric with its regression bound.
type gated struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the contract (run from the repository root, or pass -contract): %w", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// roundsPerSet is how many times a set runs every workload. The rounds
// go round-robin over the workloads, so each workload samples that many
// different windows of the shared machine's time.
const roundsPerSet = 3

// setFile is what -out writes: one point of the rolling trajectory.
type setFile struct {
	Header header `json:"header"`
	Sets   []set  `json:"sets"`
}

type header struct {
	Commit      string         `json:"commit"`
	GoVersion   string         `json:"go_version"`
	NumCPU      int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Kernel      string         `json:"kernel"`
	Load1Start  float64        `json:"load1_start"`
	Load1End    float64        `json:"load1_end"`
	Seed        int64          `json:"seed"`
	Seconds     float64        `json:"seconds"`
	TimerPairNS int64          `json:"timer_pair_ns"`
	OpsPerBatch map[string]int `json:"ops_per_batch"`
	Started     string         `json:"started"`
}

// set is roundsPerSet untraced runs of every workload, then one traced
// run of each.
type set struct {
	Rounds []map[string]result `json:"rounds"`
	Traced map[string]result   `json:"traced"`
}

// values returns the metric's value in each round.
func (s *set) values(workload, name string) []float64 {
	var v []float64
	for _, round := range s.Rounds {
		if m, ok := round[workload].Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// failRatio is verifications failed ÷ ops attempted over the rounds.
func (s *set) failRatio(workload string) float64 {
	var failed, attempted int64
	for _, round := range s.Rounds {
		failed += round[workload].Failed
		attempted += round[workload].Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}

func load1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f, _ := strconv.ParseFloat(strings.Fields(string(data))[0], 64)
	return f
}

func firstLine(data []byte, err error) string {
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.SplitN(string(data), "\n", 2)[0])
}

// runSets runs n sets, every run in a fresh process of this same
// binary, prints each set's medians, and — from two sets on — compares
// the last two under the contract's bounds. That comparison of the same
// code with itself is the evidence the bounds rest on.
func runSets(n int, seed int64, seconds float64, smoke bool, out, outDir, contractPath string) error {
	c, err := loadContract(contractPath)
	if err != nil {
		return err
	}
	if seconds == 0 {
		seconds = float64(c.RunSeconds)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := setFile{Header: header{
		Commit:      firstLine(exec.Command("git", "rev-parse", "HEAD").Output()),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Kernel:      firstLine(os.ReadFile("/proc/sys/kernel/osrelease")),
		Load1Start:  load1(),
		Seed:        seed,
		Seconds:     seconds,
		TimerPairNS: timerPair().Nanoseconds(),
		OpsPerBatch: map[string]int{},
		Started:     time.Now().UTC().Format(time.RFC3339),
	}}
	for _, w := range workloads {
		file.Header.OpsPerBatch[w.name] = w.batch
	}

	one := func(w *workload, seed int64, traced bool) (result, error) {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-outdir", outDir}
		if traced {
			args = append(args, "-trace", "1")
		}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", w.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return result{}, fmt.Errorf("%s: last line of output: %w", w.name, err)
		}
		return r, nil
	}

	for s := 0; s < n; s++ {
		cur := set{Traced: map[string]result{}}
		for round := 0; round < roundsPerSet; round++ {
			results := map[string]result{}
			for _, w := range workloads {
				r, err := one(w, seed+int64(round), false)
				if err != nil {
					return err
				}
				results[w.name] = r
				fmt.Fprintf(os.Stderr, "set %d round %d %-22s op_us_p50=%.6g ops_per_s=%.6g setup_s=%.4g failed=%d\n",
					s+1, round+1, w.name, r.Metrics["op_us_p50"].Value, r.Metrics["ops_per_s"].Value, r.Metrics["setup_s"].Value, r.Failed)
			}
			cur.Rounds = append(cur.Rounds, results)
		}
		for _, w := range workloads {
			r, err := one(w, seed, true)
			if err != nil {
				return err
			}
			cur.Traced[w.name] = r
		}
		file.Sets = append(file.Sets, cur)
		printSet(s+1, &cur, c)
	}
	file.Header.Load1End = load1()

	if out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if n >= 2 {
		fmt.Printf("\nset %d against set %d, the same code twice:\n", n, n-1)
		return compareSets(&file.Sets[n-2], &file.Sets[n-1], c)
	}
	return nil
}

// printSet prints every metric of a set by name with its unit: the
// gated ones as medians over the rounds, the rest from the traced run.
func printSet(n int, s *set, c *contract) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "\nset %d\tworkload\tmetric\tvalue\tunit\tround spread\n", n)
	for _, w := range workloads {
		for _, g := range c.EndToEnd {
			v := s.values(w.name, g.Name)
			fmt.Fprintf(tw, "\t%s\t%s\t%.6g\t%s\t%.1f%%\n", w.name, g.Name, median(v), g.Unit, 100*spread(v))
		}
		fmt.Fprintf(tw, "\t%s\tfail_ratio\t%g\tratio\t\n", w.name, s.failRatio(w.name))
		for _, p := range c.PerLayer {
			if m, ok := s.Traced[w.name].Metrics[p.Name]; ok {
				fmt.Fprintf(tw, "\t%s\t%s\t%.6g\t%s\t\n", w.name, p.Name, m.Value, m.Unit)
			}
		}
	}
	tw.Flush()
}

func compareFiles(a, b, contractPath string) error {
	c, err := loadContract(contractPath)
	if err != nil {
		return err
	}
	last := func(path string) (*set, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f setFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(f.Sets) == 0 {
			return nil, fmt.Errorf("%s holds no set", path)
		}
		return &f.Sets[len(f.Sets)-1], nil
	}
	sa, err := last(a)
	if err != nil {
		return err
	}
	sb, err := last(b)
	if err != nil {
		return err
	}
	return compareSets(sa, sb, c)
}

// verdict weighs b's median against a's for one gated metric. worse is
// how far b is on the wrong side of a, as a share of a; a difference
// counts only when it exceeds the bound, and is resolved only when it
// also exceeds both sets' own round spread.
func verdict(a, b []float64, g gated) (delta float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, "unresolved"
	}
	delta = (mb - ma) / ma
	worse := delta
	if g.Better == "higher" {
		worse = -delta
	}
	noise := max(spread(a), spread(b))
	switch {
	case noise > g.Bound && max(worse, -worse) <= noise:
		return delta, "unresolved"
	case worse > g.Bound:
		return delta, "worse"
	case -worse > g.Bound:
		return delta, "better"
	}
	return delta, "same"
}

// compareSets prints one row per workload and gated metric and fails on
// any `worse` and on any rise in fail_ratio.
func compareSets(a, b *set, c *contract) error {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tdelta\tbound\tspread a\tspread b\tverdict")
	bad := 0
	for _, w := range workloads {
		for _, g := range c.EndToEnd {
			va, vb := a.values(w.name, g.Name), b.values(w.name, g.Name)
			delta, v := verdict(va, vb, g)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				w.name, g.Name, median(va), median(vb), 100*delta, 100*g.Bound, 100*spread(va), 100*spread(vb), v)
		}
		ra, rb := a.failRatio(w.name), b.failRatio(w.name)
		v := "same"
		if rb > ra {
			v = "worse"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%g\t%g\t\t0\t\t\t%s\n", w.name, ra, rb, v)
	}
	tw.Flush()
	if bad > 0 {
		return fmt.Errorf("%d rows are worse", bad)
	}
	return nil
}
