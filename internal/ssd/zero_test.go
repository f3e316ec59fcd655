package ssd

import (
	"bytes"
	"testing"

	"hams/internal/checkpoint"
	"hams/internal/mem"
	"hams/internal/sim"
)

// buffers counts the page buffers a device holds (attached to slots or
// spare): the buffer's resident set.
func (d *Device) buffers() int { return len(d.pages) }

func ones(n int) []byte { return bytes.Repeat([]byte{0x5C}, n) }

// readZero fails unless lba reads back as a full page of zeros.
func readZero(t *testing.T, d *Device, now sim.Time, lba uint64) {
	t.Helper()
	_, got := d.Read(now, lba, 0)
	if len(got) != 4096 || !mem.IsZero(got) {
		t.Fatalf("lba %d: %d bytes, zero %v; want a zero page", lba, len(got), mem.IsZero(got))
	}
	if p := d.Peek(lba); len(p) != 4096 || !mem.IsZero(p) {
		t.Fatalf("lba %d peek: %d bytes, zero %v; want a zero page", lba, len(p), mem.IsZero(p))
	}
}

// A buffer hit that replaces nonzero data with zeros detaches the
// slot's buffer; a later nonzero write reuses it.
func TestBufferZeroOverwriteOnHit(t *testing.T) {
	d := New(tinyCfg(8))
	now, _ := d.Write(0, 3, ones(4096), false)
	now, _ = d.Write(now, 3, make([]byte, 4096), false)
	readZero(t, d, now, 3)
	if slot, _ := d.buf.Get(3); d.slots[slot].page != 0 || len(d.spare) != 1 {
		t.Fatal("zero overwrite should detach the slot buffer to spare")
	}
	now, _ = d.Write(now, 4, ones(4096), false)
	if len(d.spare) != 0 || d.buffers() != 1 {
		t.Fatalf("nonzero insert should reuse the spare: spare %d, buffers %d", len(d.spare), d.buffers())
	}
}

// Zeros written over flushed nonzero data reach flash on eviction,
// Flush and PowerFail, and read back as zeros.
func TestBufferZeroOverwriteReachesFlash(t *testing.T) {
	for _, path := range []string{"evict", "flush", "powerfail"} {
		t.Run(path, func(t *testing.T) {
			d := New(tinyCfg(4))
			now, _ := d.Write(0, 1, ones(4096), false)
			now = d.Flush(now)
			now, _ = d.Write(now, 1, make([]byte, 4096), false)
			switch path {
			case "evict":
				for lba := uint64(10); lba < 14; lba++ {
					now, _ = d.Write(now, lba, ones(64), false)
				}
				if _, ok := d.buf.Get(1); ok {
					t.Fatal("lba 1 still buffered")
				}
			case "flush":
				now = d.Flush(now)
				now = d.DropCaches(now)
			case "powerfail":
				if risk := d.PowerFail(); risk != 1 {
					t.Fatalf("risk = %d, want 1", risk)
				}
				now = d.DropCaches(now)
			}
			readZero(t, d, now, 1)
		})
	}
}

// Without a supercap the dirty zero write is lost and the flushed
// nonzero page survives.
func TestBufferZeroOverwriteLostWithoutSupercap(t *testing.T) {
	cfg := tinyCfg(4)
	cfg.Supercap = false
	d := New(cfg)
	now, _ := d.Write(0, 1, ones(4096), false)
	now = d.Flush(now)
	now, _ = d.Write(now, 1, make([]byte, 4096), false)
	d.PowerFail()
	if d.DirtyLost() != 1 {
		t.Fatalf("DirtyLost = %d, want 1", d.DirtyLost())
	}
	if _, got := d.Read(now, 1, 0); !bytes.Equal(got, ones(4096)) {
		t.Fatal("flushed page should survive a volatile buffer")
	}
}

// A zero page programmed straight to flash (bufferless or FUA) peeks
// as a full zero page even though flash holds no payload for it.
func TestPeekElidedFlashPage(t *testing.T) {
	for _, bufPages := range []int{0, 4} {
		d := New(tinyCfg(bufPages))
		now, _ := d.Write(0, 2, ones(4096), true)
		now, _ = d.Write(now, 2, make([]byte, 4096), true)
		now = d.DropCaches(now)
		readZero(t, d, now, 2)
	}
}

// TestBufferZeroInsertZeroAllocs pins the miss path: filling the
// buffer with never-written LBAs allocates nothing and attaches no
// page buffer.
func TestBufferZeroInsertZeroAllocs(t *testing.T) {
	d := New(tinyCfg(8))
	const span = 32
	var now sim.Time
	for lba := uint64(0); lba < span; lba++ {
		now, _ = d.ReadInto(now, lba, 0, nil)
	}
	var lba uint64
	avg := testing.AllocsPerRun(100, func() {
		now, _ = d.ReadInto(now, lba%span, 0, nil)
		lba++
	})
	if avg != 0 || d.buffers() != 0 {
		t.Fatalf("zero insert: %.1f allocs/op, %d buffers; want 0, 0", avg, d.buffers())
	}
}

// Zero slots save as zero pages and restore without buffers; the
// restored device re-encodes to the same image.
func TestRestoreElidesZeroSlots(t *testing.T) {
	d := New(tinyCfg(8))
	now, _ := d.Write(0, 1, ones(100), false)
	now, _ = d.Write(now, 2, make([]byte, 4096), false)
	d.ReadInto(now, 3, 0, nil)
	var enc checkpoint.Enc
	d.SaveState(&enc)
	r := New(tinyCfg(8))
	if err := r.RestoreState(checkpoint.NewDec(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if r.buffers() != 1 { // only lba 1 holds nonzero data
		t.Fatalf("restored device holds %d page buffers, want 1", r.buffers())
	}
	if p := r.Peek(1); !bytes.Equal(p, ones(100)) {
		t.Fatalf("restored lba 1 = %d bytes", len(p))
	}
	var again checkpoint.Enc
	r.SaveState(&again)
	if !bytes.Equal(enc.Bytes(), again.Bytes()) {
		t.Fatal("restored device re-encodes differently")
	}
	readZero(t, r, now, 2)
}
