package hams

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func smallConfig(m Mode, t Topology) Config {
	cfg := DefaultConfig(m, t)
	cfg.PageBytes = 16 * KiB
	cfg.PinnedBytes = 2 * MiB
	cfg.NVDIMM.DRAM.Capacity = 8 * MiB
	cfg.SSD.Geometry.BlocksPerPln = 64 // shrink the archive for tests
	cfg.SSD.BufferBytes = 1 * MiB
	if t == Tight {
		cfg.SSD.BufferBytes = 0
	}
	return cfg
}

func TestMoSReadWrite(t *testing.T) {
	m, err := New(smallConfig(Extend, Tight))
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("public API round trip")
	if _, err := m.Write(4096, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := m.Read(4096, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	if m.Now() <= 0 {
		t.Fatal("clock did not advance")
	}
	if m.Stats().Accesses != 2 {
		t.Fatalf("accesses = %d", m.Stats().Accesses)
	}
}

func TestMoSCapacityExceedsNVDIMM(t *testing.T) {
	m, err := New(smallConfig(Extend, Loose))
	if err != nil {
		t.Fatal(err)
	}
	if m.Capacity() <= uint64(8*MiB) {
		t.Fatalf("capacity %d does not expand beyond the NVDIMM", m.Capacity())
	}
}

func TestMoSPowerFailRecover(t *testing.T) {
	m, err := New(smallConfig(Extend, Tight))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("durable")
	if _, err := m.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	// Conflict-evict page 0 so an NVMe write is in flight.
	entries := uint64((8*MiB - 2*MiB) / (16 * KiB))
	if _, err := m.Write(entries*16*KiB, []byte{1}); err != nil {
		t.Fatal(err)
	}
	m.PowerFail()
	rep, err := m.Recover()
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	got := make([]byte, len(payload))
	if _, err := m.Read(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("after recovery got %q", got)
	}
}

func TestMoSAdvanceNeverRewinds(t *testing.T) {
	m, err := New(smallConfig(Persist, Loose))
	if err != nil {
		t.Fatal(err)
	}
	m.Advance(100)
	m.Advance(-50)
	if m.Now() != 100 {
		t.Fatalf("Now = %v", m.Now())
	}
	if m.String() == "" {
		t.Fatal("String")
	}
}

// Property: any mix of zero and nonzero writes and reads over a span
// several times the NVDIMM cache (constant fills and writebacks of
// zero and nonzero pages) reads back what a flat reference holds, in
// every mode and topology.
func TestMoSMixedZeroPagesProperty(t *testing.T) {
	const span = 24 * MiB
	for _, m := range []Mode{Extend, Persist} {
		for _, tp := range []Topology{Loose, Tight} {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				mos, err := New(smallConfig(m, tp))
				if err != nil {
					t.Fatal(err)
				}
				ref := make([]byte, span)
				for i := 0; i < 150; i++ {
					n := 1 + rng.Intn(40*KiB)
					addr := uint64(rng.Intn(span - n))
					if rng.Intn(2) == 0 {
						p := make([]byte, n)
						if rng.Intn(2) == 0 {
							rng.Read(p)
						}
						if _, err := mos.Write(addr, p); err != nil {
							t.Fatal(err)
						}
						copy(ref[addr:], p)
					} else {
						p := make([]byte, n)
						if _, err := mos.Read(addr, p); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(p, ref[addr:addr+uint64(n)]) {
							return false
						}
					}
					// Leave time for writebacks to retire: back-to-back
					// evictions can exhaust the PRP pool (a known defect).
					mos.Advance(1_000_000) // 1 ms
				}
				got := make([]byte, span)
				mos.Peek(0, got)
				return bytes.Equal(got, ref)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
				t.Fatalf("%v/%v: %v", m, tp, err)
			}
		}
	}
}
