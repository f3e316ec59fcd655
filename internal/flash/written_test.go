package flash

import (
	"errors"
	"testing"

	"hams/internal/checkpoint"
)

// The written-state bitset spans chunks: pages on both sides of chunk
// boundaries keep their state through erase and a checkpoint round
// trip, and the image lists them in PPN order.
func TestWrittenStateAcrossChunks(t *testing.T) {
	g := ULLGeometry()
	a := New(g, ZNAND())
	data := make([]byte, g.PageBytes)
	data[7] = 7
	ppns := []PPN{0, 1<<writtenChunkBits - 1, 1 << writtenChunkBits, 5<<writtenChunkBits + 9, PPN(g.TotalPages() - 1)}
	for i, p := range ppns {
		payload := data
		if i%2 == 1 {
			payload = nil // elided
		}
		if _, err := a.ProgramPage(0, p, payload); err != nil {
			t.Fatalf("program %d: %v", p, err)
		}
	}
	for _, p := range ppns {
		if !a.Written(p) || a.Written(p+1) && p+1 != ppns[2] {
			t.Fatalf("page %d: written %v, next page written %v", p, a.Written(p), a.Written(p+1))
		}
	}
	got := a.writtenPPNs()
	if len(got) != len(ppns) || a.nwritten != len(ppns) {
		t.Fatalf("writtenPPNs = %v (count %d), want %v", got, a.nwritten, ppns)
	}
	for i := range got {
		if PPN(got[i]) != ppns[i] {
			t.Fatalf("writtenPPNs = %v, want %v in order", got, ppns)
		}
	}

	var enc checkpoint.Enc
	a.SaveState(&enc, nil)
	b := New(g, ZNAND())
	if err := b.RestoreState(checkpoint.NewDec(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, p := range ppns {
		want := byte(7)
		if i%2 == 1 {
			want = 0
		}
		if !b.Written(p) || b.PeekPage(p)[7] != want {
			t.Fatalf("restored page %d: written %v, byte 7 = %d, want %d", p, b.Written(p), b.PeekPage(p)[7], want)
		}
	}

	// Erasing the block of ppns[3] clears it and nothing else.
	b.EraseBlock(0, ppns[3])
	if b.Written(ppns[3]) || b.nwritten != len(ppns)-1 || len(b.data) != 3 {
		t.Fatalf("after erase: written %v, count %d, payloads %d", b.Written(ppns[3]), b.nwritten, len(b.data))
	}
	if _, err := b.ProgramPage(0, ppns[3], data); err != nil {
		t.Fatalf("reprogram after erase: %v", err)
	}
}

// An image that names a page outside the geometry is corrupt; it must
// not size the bitset from the wire.
func TestRestoreRejectsPageOutsideGeometry(t *testing.T) {
	big := smallGeo()
	big.BlocksPerPln *= 4
	a := New(big, ZNAND())
	last := PPN(big.TotalPages() - 1)
	if _, err := a.ProgramPage(0, last, nil); err != nil {
		t.Fatal(err)
	}
	var enc checkpoint.Enc
	a.SaveState(&enc, nil)
	b := New(smallGeo(), ZNAND()) // same dies and channels, fewer blocks
	if err := b.RestoreState(checkpoint.NewDec(enc.Bytes())); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("restore of page %d into a %d-page array: err %v, want ErrCorrupt", last, smallGeo().TotalPages(), err)
	}
}
