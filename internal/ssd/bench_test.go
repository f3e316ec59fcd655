package ssd

import (
	"testing"

	"hams/internal/sim"
)

// BenchmarkDeviceReadMiss measures a buffer miss: FTL translate, flash
// read, insert into the internal DRAM (evicting a clean page) and the
// copy out. "zero" reads never-written LBAs, the cold-fill case that
// skips every copy; "data" reads LBAs holding real bytes.
func BenchmarkDeviceReadMiss(b *testing.B) {
	for _, name := range []string{"zero", "data"} {
		b.Run(name, func(b *testing.B) {
			d := New(tinyCfg(8))
			const span = 64 // LBAs cycled through an 8-page buffer: every read misses
			var now sim.Time
			if name == "data" {
				page := ones(4096)
				for lba := uint64(0); lba < span; lba++ {
					now, _ = d.Write(now, lba, page, true)
				}
			}
			dst := make([]byte, d.PageBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now, _ = d.ReadInto(now, uint64(i)%span, 0, dst)
			}
		})
	}
}

// BenchmarkDeviceWriteBack measures buffered page writes whose
// evictions write the LRU dirty page back to flash.
func BenchmarkDeviceWriteBack(b *testing.B) {
	for _, name := range []string{"zero", "data"} {
		b.Run(name, func(b *testing.B) {
			d := New(tinyCfg(8))
			page := make([]byte, d.PageBytes())
			if name == "data" {
				page = ones(len(page))
			}
			const span = 64
			var now sim.Time
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done, err := d.Write(now, uint64(i)%span, page, false)
				if err != nil {
					b.Fatal(err)
				}
				now = done
			}
		})
	}
}
