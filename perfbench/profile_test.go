package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestParseTracesAttribution pins the attribution rule on a fixture in
// `go tool pprof -traces` format: each sample goes to its innermost
// hams/internal/<pkg> frame (memmove under mem counts as mem, under
// ssd as ssd; a subpackage counts as its parent; GC assist under a
// simulator frame counts as that frame), background GC goes to gc,
// and everything else — the benchmark's own frames, unlisted
// packages, the HTTP stack — to other.
func TestParseTracesAttribution(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"mem":   150 * time.Millisecond,
		"ssd":   270 * time.Millisecond,
		"gc":    10 * time.Millisecond,
		"core":  20 * time.Millisecond,
		"cpu":   30 * time.Millisecond,
		"other": 1200*time.Millisecond + 500*time.Microsecond + 40*time.Millisecond,
	}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for b, d := range want {
		if got[b] != d {
			t.Errorf("bucket %s = %v, want %v", b, got[b], d)
		}
	}
}

func TestSharesCoverEveryBucket(t *testing.T) {
	s := shares(map[string]time.Duration{"cpu": 3 * time.Second, "gc": time.Second})
	if len(s) != len(hostBuckets) {
		t.Fatalf("%d shares, want one per bucket (%d)", len(s), len(hostBuckets))
	}
	if s["cpu"] != 0.75 || s["gc"] != 0.25 || s["ssd"] != 0 {
		t.Fatalf("shares = %v", s)
	}
	if z := shares(nil); z["cpu"] != 0 {
		t.Fatalf("empty profile shares = %v", z)
	}
}

func TestParseTracesRejectsBadValue(t *testing.T) {
	in := "-----------+----\n    lots   runtime.memmove\n"
	if _, err := parseTraces(strings.NewReader(in)); err == nil {
		t.Fatal("want an error for an unparseable sample value")
	}
}
