package mem

import "bytes"

// zeroPage is the shared all-zero page. Zeros hands out slices of its
// tail, and IsZero recognizes any slice of it without a scan. Nothing
// writes into it.
var zeroPage [1 * MiB]byte

// Zeros returns n zero bytes for reading only. Up to 1 MiB (the
// largest MoS page) they alias the shared zero page, so a layer that
// already knows its page is zero passes that knowledge down as the
// payload itself: IsZero answers for the slice, or any reslice of it,
// without scanning. The slice ends at the zero page's end, so an
// append to it reallocates instead of writing into the shared page.
func Zeros(n int) []byte {
	if n <= len(zeroPage) {
		return zeroPage[len(zeroPage)-n:]
	}
	return make([]byte, n)
}

// IsZero reports whether every byte of p is zero. It is the one test
// the functional datapath uses to hold an all-zero page as absence
// (an absent SparseStore frame, a nil SSD buffer slot, an elided
// flash payload).
func IsZero(p []byte) bool {
	if len(p) == 0 {
		return true
	}
	// A reslice p of the zero page's tail satisfies p[0] ==
	// zeroPage[len-cap(p)]; pointer equality cannot match other memory.
	if c := cap(p); c <= len(zeroPage) && &p[0] == &zeroPage[len(zeroPage)-c] {
		return true
	}
	for len(p) > 0 {
		n := min(len(p), len(zeroPage))
		if !bytes.Equal(p[:n], zeroPage[:n]) {
			return false
		}
		p = p[n:]
	}
	return true
}
