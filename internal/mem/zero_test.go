package mem

import (
	"bytes"
	"testing"

	"hams/internal/checkpoint"
)

func TestIsZeroRecognizesSharedZeros(t *testing.T) {
	z := Zeros(128 * KiB)
	for _, p := range [][]byte{z, z[4*KiB:], z[4*KiB : 8*KiB], Zeros(0), Zeros(2 * MiB), make([]byte, 5000)} {
		if !IsZero(p) {
			t.Fatalf("IsZero(%d zero bytes) = false", len(p))
		}
	}
	for _, i := range []int{0, 63, 4095, 4096 + 17} {
		p := make([]byte, 8*KiB)
		p[i] = 1
		if IsZero(p) {
			t.Fatalf("IsZero with byte %d set = true", i)
		}
	}
	// Zeros ends at the shared page's end, so an append reallocates.
	a := append(Zeros(8), 7)
	if a[8] != 7 || !IsZero(Zeros(len(zeroPage))) {
		t.Fatal("append to Zeros wrote into the shared zero page")
	}
}

func TestSparseStoreZeroWriteAllocatesNothing(t *testing.T) {
	s := NewSparseStore()
	buf := make([]byte, 3*frameSize+100)
	s.WriteAt(frameSize/2, buf)
	s.WriteAt(5*frameSize, Zeros(frameSize))
	s.Zero(1<<30, 64*KiB)
	if s.Frames() != 0 {
		t.Fatalf("zero writes allocated %d frames", s.Frames())
	}
	var addr uint64
	avg := testing.AllocsPerRun(100, func() {
		s.WriteAt(addr, buf[:frameSize])
		addr += frameSize
	})
	if avg != 0 || s.Frames() != 0 {
		t.Fatalf("zero write: %.1f allocs/op, %d frames; want 0, 0", avg, s.Frames())
	}
}

// Nonzero, then zeros, reads back zeros, and the frames the zeros
// covered are released: a store is resident exactly where it holds a
// nonzero byte.
func TestSparseStoreZeroOverwrite(t *testing.T) {
	s := NewSparseStore()
	ones := bytes.Repeat([]byte{0xAB}, 3*frameSize)
	s.WriteAt(0, ones)
	if s.Frames() != 3 {
		t.Fatalf("frames = %d, want 3", s.Frames())
	}
	s.WriteAt(frameSize, make([]byte, 100))
	s.WriteAt(frameSize+100, make([]byte, frameSize-100)) // frame zeroed in parts
	s.WriteAt(0, make([]byte, frameSize))                 // whole frame, released last
	s.WriteAt(2*frameSize+1, make([]byte, 10))            // frame stays nonzero
	got := make([]byte, 3*frameSize)
	s.ReadAt(0, got)
	for i, b := range got {
		want := byte(0)
		if i >= 2*frameSize && (i == 2*frameSize || i > 2*frameSize+10) {
			want = 0xAB
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
	if s.Frames() != 1 {
		t.Fatalf("frames = %d after zeroing two, want 1", s.Frames())
	}
	// A released frame is reused cleared.
	s.WriteAt(5, []byte{1})
	s.ReadAt(0, got[:frameSize])
	if got[5] != 1 || !IsZero(got[:5]) || !IsZero(got[6:frameSize]) {
		t.Fatal("reused frame kept stale bytes")
	}
}

func TestSparseStoreCopyZeroPages(t *testing.T) {
	s := NewSparseStore()
	s.Copy(64*frameSize, 0, 4*frameSize) // absent onto absent
	if s.Frames() != 0 {
		t.Fatalf("zero clone allocated %d frames", s.Frames())
	}
	s.WriteAt(64*frameSize, bytes.Repeat([]byte{9}, 2*frameSize))
	s.Copy(64*frameSize, 0, 2*frameSize) // absent onto resident
	if s.Frames() != 0 {
		t.Fatalf("zero clone left %d frames resident", s.Frames())
	}
	got := make([]byte, 2*frameSize)
	s.ReadAt(64*frameSize, got)
	if !IsZero(got) {
		t.Fatal("zero clone left nonzero bytes")
	}
}

func TestSparseStoreViewZeroRange(t *testing.T) {
	s := NewSparseStore()
	scratch := make([]byte, 32*KiB)
	if v := s.View(frameSize, scratch); &v[0] == &scratch[0] || !IsZero(v) {
		t.Fatal("absent range should view as shared zeros")
	}
	s.WriteAt(3*frameSize+7, []byte{5})
	v := s.View(frameSize, scratch)
	if &v[0] != &scratch[0] || v[2*frameSize+7] != 5 {
		t.Fatal("resident range should read into scratch")
	}
}

// Images from before zero frames were elided carry them explicitly;
// they still load, and restore as absence.
func TestSparseStoreRestoreElidesZeroFrames(t *testing.T) {
	var enc checkpoint.Enc
	enc.Count(2)
	enc.U64(3)
	enc.Page(make([]byte, frameSize))
	enc.U64(9)
	page := make([]byte, frameSize)
	page[10] = 0x5A
	enc.Page(page)
	s := NewSparseStore()
	if err := s.RestoreState(checkpoint.NewDec(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if s.Frames() != 1 {
		t.Fatalf("frames = %d, want 1 (zero frame elided)", s.Frames())
	}
	got := make([]byte, 1)
	s.ReadAt(9*frameSize+10, got)
	if got[0] != 0x5A {
		t.Fatalf("restored byte = %#x", got[0])
	}
	var again checkpoint.Enc
	s.SaveState(&again)
	r := NewSparseStore()
	if err := r.RestoreState(checkpoint.NewDec(again.Bytes())); err != nil || r.Frames() != s.Frames() {
		t.Fatalf("round trip: err %v, frames %d vs %d", err, r.Frames(), s.Frames())
	}
}
