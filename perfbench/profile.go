package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// The host channel attributes CPU-profile samples to simulator
// packages. Each sample goes to the innermost hams/internal/<pkg>
// frame of its stack — so runtime.memmove under ssd.bufInsert counts
// as ssd, and allocation under a simulator frame counts as that
// package. A stack with no simulator frame goes to gc when it is
// background collection (runtime.gcBgMarkWorker, the sweeper or the
// scavenger) and to other otherwise (HTTP, JSON, the benchmark's own
// code). The profile is read back as `go tool pprof -traces` text, so
// no profile-format dependency is needed.

const simPrefix = "hams/internal/"

// gcRoots mark a stack as background garbage collection.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// bucketOf returns the attribution bucket of one stack, innermost
// frame first.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, simPrefix)
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, b := range hostBuckets {
			if b == pkg {
				return pkg
			}
		}
		return "other"
	}
	for _, fn := range stack {
		for _, root := range gcRoots {
			if fn == root {
				return "gc"
			}
		}
	}
	return "other"
}

// parseTraces reads `go tool pprof -traces` output and returns the
// sampled time per bucket. Each sample block starts after a
// "-----------+---" separator: the first line holds the value and the
// innermost frame, following lines one caller frame each.
func parseTraces(r io.Reader) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	var (
		value time.Duration
		stack []string
		open  bool
	)
	flush := func() {
		if open && len(stack) > 0 {
			out[bucketOf(stack)] += value
		}
		stack, open = stack[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			open = true
			value = -1
			continue
		}
		if !open {
			continue // header lines
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if value < 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", fields[0], err)
			}
			value = d
			fields = fields[1:]
			if len(fields) == 0 {
				continue
			}
		}
		stack = append(stack, fields[0]) // drop the "(inline)" marker
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// shares normalizes bucket times to fractions of the total, with an
// entry for every host bucket.
func shares(byBucket map[string]time.Duration) map[string]float64 {
	var total time.Duration
	for _, d := range byBucket {
		total += d
	}
	out := make(map[string]float64, len(hostBuckets))
	for _, b := range hostBuckets {
		if total > 0 {
			out[b] = float64(byBucket[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out
}

// cpuProfile is a running CPU profile written under dir.
type cpuProfile struct {
	f *os.File
}

func startProfile(dir string) (*cpuProfile, error) {
	f, err := os.Create(filepath.Join(dir, "perfbench.cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{f: f}, nil
}

// stop ends the profile and attributes its samples, recording every
// host.<bucket>_share metric into r.
func (p *cpuProfile) stop(r *ledger) error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", p.f.Name())
	var stderr strings.Builder
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	byBucket, err := parseTraces(strings.NewReader(string(text)))
	if err != nil {
		return err
	}
	var total time.Duration
	for _, d := range byBucket {
		total += d
	}
	for b, s := range shares(byBucket) {
		r.set("host."+b+"_share", s)
	}
	r.note("host profile: %v of CPU samples", total)
	return nil
}
