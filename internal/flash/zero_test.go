package flash

import (
	"bytes"
	"testing"

	"hams/internal/checkpoint"
	"hams/internal/mem"
)

// A zero program keeps the page's written state but stores no payload;
// every read path still returns a full page of zeros.
func TestZeroProgramElidesPayload(t *testing.T) {
	g := smallGeo()
	a := New(g, ZNAND())
	ones := bytes.Repeat([]byte{0xC3}, int(g.PageBytes))
	if _, err := a.ProgramPage(0, 5, ones); err != nil {
		t.Fatal(err)
	}
	done := a.EraseBlock(0, 5) // recycles the nonzero buffer
	if _, err := a.ProgramPage(done, 5, make([]byte, g.PageBytes)); err != nil {
		t.Fatal(err)
	}
	if !a.Written(5) || len(a.data[5]) != 0 {
		t.Fatalf("zero program: written %v, payload %d bytes; want true, elided", a.Written(5), len(a.data[5]))
	}
	if _, err := a.ProgramPage(done, 5, nil); err != ErrProgramWritten {
		t.Fatalf("reprogram of a zero page: err %v, want ErrProgramWritten", err)
	}
	if _, got := a.ReadPage(done, 5, 0); len(got) != int(g.PageBytes) || !mem.IsZero(got) {
		t.Fatalf("ReadPage: %d bytes, zero %v", len(got), mem.IsZero(got))
	}
	if got := a.PeekPage(5); len(got) != int(g.PageBytes) || !mem.IsZero(got) {
		t.Fatalf("PeekPage: %d bytes, zero %v", len(got), mem.IsZero(got))
	}
	dst := bytes.Repeat([]byte{0xEE}, int(g.PageBytes))
	if _, zero := a.ReadPageInto(done, 5, 0, dst); !zero || dst[0] != 0xEE {
		t.Fatal("ReadPageInto of a zero page must report zero and leave dst alone")
	}
	if _, zero := a.ReadPageInto(done, 6, 0, dst); !zero {
		t.Fatal("ReadPageInto of an unprogrammed page must report zero")
	}
}

// TestZeroProgramZeroAllocs pins the elision: once the page map has
// grown, programming zero pages allocates nothing and holds no buffer.
func TestZeroProgramZeroAllocs(t *testing.T) {
	g := smallGeo()
	a := New(g, ZNAND())
	pages := PPN(g.TotalPages())
	for p := PPN(0); p < pages; p++ {
		a.ProgramPage(0, p, nil)
	}
	for p := PPN(0); p < pages; p++ {
		if a.Written(p) {
			a.EraseBlock(0, p)
		}
	}
	if a.nwritten != 0 || len(a.data) != 0 {
		t.Fatalf("%d pages (%d payloads) still written after erasing every block", a.nwritten, len(a.data))
	}
	zero := make([]byte, g.PageBytes)
	var p PPN
	avg := testing.AllocsPerRun(100, func() {
		a.ProgramPage(0, p, zero)
		p++
	})
	if avg != 0 || len(a.freeBufs) != 0 {
		t.Fatalf("zero program: %.1f allocs/op, %d buffers; want 0, 0", avg, len(a.freeBufs))
	}
	for q := PPN(0); q < p; q++ {
		if len(a.data[q]) != 0 {
			t.Fatalf("page %d holds a payload", q)
		}
	}
}

// Live zero pages and stale pages both restore elided, and both peek
// as a full zero page.
func TestRestoreElidesZeroPages(t *testing.T) {
	g := smallGeo()
	a := New(g, ZNAND())
	page := make([]byte, g.PageBytes)
	page[1] = 9
	a.ProgramPage(0, 1, page) // live, nonzero
	a.ProgramPage(0, 2, nil)  // live, zero
	a.ProgramPage(0, 3, page) // stale
	var enc checkpoint.Enc
	a.SaveState(&enc, func(p PPN) bool { return p != 3 })
	b := New(g, ZNAND())
	if err := b.RestoreState(checkpoint.NewDec(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	for p, want := range map[PPN]byte{1: 9, 2: 0, 3: 0} {
		if !b.Written(p) {
			t.Fatalf("page %d lost its written state", p)
		}
		if got := b.PeekPage(p); len(got) != int(g.PageBytes) || got[1] != want {
			t.Fatalf("page %d: %d bytes, byte 1 = %d; want %d", p, len(got), got[1], want)
		}
	}
	if len(b.data[2]) != 0 || len(b.data[3]) != 0 {
		t.Fatal("zero and stale pages should restore without a payload")
	}
	// The restored array encodes the same image.
	var again checkpoint.Enc
	b.SaveState(&again, func(p PPN) bool { return p != 3 })
	if !bytes.Equal(enc.Bytes(), again.Bytes()) {
		t.Fatal("restored array re-encodes differently")
	}
}
