package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hams/internal/api"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail estimate resting on fewer is noise.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean returns the geometric mean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// kindMedian is the median job latency of a workload whose jobs come
// in kinds: the geometric mean of the per-kind medians, so the
// proportion of each kind completed in a window cannot move it.
func kindMedian(byKind map[string][]float64) float64 {
	var meds []float64
	for _, xs := range byKind {
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

// percentile returns the nearest-rank p-th percentile of xs and how
// many samples lie strictly beyond its rank.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tailPercentile reports the p-th percentile only when at least
// minBeyond samples lie beyond it.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	v, beyond := percentile(xs, p)
	return v, beyond >= minBeyond
}

// describeTail renders a percentile with its sample count, or why it
// is withheld.
func describeTail(name string, xs []float64, p float64, unit string) string {
	if v, ok := tailPercentile(xs, p); ok {
		return fmt.Sprintf("%s = %.6g %s (n=%d)", name, v, unit, len(xs))
	}
	return fmt.Sprintf("%s not reported: n=%d leaves fewer than %d samples beyond p%g", name, len(xs), minBeyond, p)
}

// refused is the outcome of a job the service turned away before it
// ran (a non-202 submission).
const refused = "refused"

// tally counts operations — distinct jobs and output checks — and their
// failures. A job fails unless it reaches api.StateDone: refused,
// failed and canceled jobs all count. An operation is counted once
// however often the window repeats it, and it fails if any repeat
// fails, so attempted and failed depend on the workload's inputs and
// not on how many repeats fit in the window.
type tally struct {
	attempted, failed int
	checkFailures     int
	findings          []string
	ops               map[string]bool // operation key → failed
}

// job records one run of the job named key.
func (t *tally) job(key, outcome string) {
	t.record("job "+key, outcome == api.StateDone)
}

// check records one output check, named by its message; a failed check
// is also a finding.
func (t *tally) check(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if t.record("check "+msg, ok) {
		t.checkFailures++
	}
	if !ok {
		t.finding("%s", msg)
	}
}

// record counts operation key once and marks it failed on its first
// failure, which it reports.
func (t *tally) record(key string, ok bool) (newFailure bool) {
	if t.ops == nil {
		t.ops = make(map[string]bool)
	}
	failed, seen := t.ops[key]
	if !seen {
		t.attempted++
	}
	newFailure = !ok && !failed
	if newFailure {
		t.failed++
	}
	t.ops[key] = failed || !ok
	return newFailure
}

// finding records a message for the report, once per distinct text.
func (t *tally) finding(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	for _, f := range t.findings {
		if f == msg {
			return
		}
	}
	t.findings = append(t.findings, msg)
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// resetPeakRSS restarts the kernel's peak-RSS mark (VmHWM) of process
// pid at its current RSS.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakSampler reads a process's peak RSS over consecutive intervals
// of completed jobs, restarting the kernel's mark after each, so a
// run reports a typical peak rather than one extreme of GC timing.
type peakSampler struct {
	mu           sync.Mutex
	pid          string
	every, limit int
	// settle, when set, runs between reading a peak and restarting the
	// mark.
	settle func()
	n      int
	peaks  []float64
	err    error
}

// newPeakSampler samples pid's peak RSS every `every` jobs for the
// first limit jobs.
func newPeakSampler(pid string, every, limit int, settle func()) (*peakSampler, error) {
	return &peakSampler{pid: pid, every: every, limit: limit, settle: settle}, resetPeakRSS(pid)
}

// jobDone counts one completed job; it is safe for concurrent use.
func (p *peakSampler) jobDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n++
	if p.err != nil || p.n > p.limit || p.n%p.every != 0 {
		return
	}
	v, err := procStatusMB(p.pid, "VmHWM")
	if p.settle != nil {
		p.settle()
	}
	if err == nil {
		err = resetPeakRSS(p.pid)
	}
	p.peaks, p.err = append(p.peaks, v), err
}

// median returns the median interval peak, or the current peak when
// no interval completed.
func (p *peakSampler) median() (float64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return 0, p.err
	}
	if len(p.peaks) == 0 {
		return procStatusMB(p.pid, "VmHWM")
	}
	return median(p.peaks), nil
}

// procStatusMB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status and returns it in MB (1e6 bytes).
func procStatusMB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", field, err)
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("/proc/%s/status: no %s", pid, field)
}
