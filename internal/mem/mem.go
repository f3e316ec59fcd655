// Package mem defines the memory access vocabulary shared by every
// device model, and a sparse byte-addressable page store used to give
// the simulated devices functional (data-carrying) behaviour.
package mem

import "fmt"

// Op distinguishes reads from writes.
type Op uint8

const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Access is one memory reference as seen by the memory system: a byte
// address in the 64-bit MoS address space, a size, and a direction.
type Access struct {
	Addr uint64
	Size uint32
	Op   Op
	// Class tags the request with its QoS class of service (CLOS; see
	// internal/qos). It is an association, not data: trace files do
	// not record it — the replay engine assigns it per tenant — and
	// platforms without a QoS table ignore it. Zero is the default
	// class.
	Class uint8
}

func (a Access) String() string {
	return fmt.Sprintf("%s %dB @ 0x%x", a.Op, a.Size, a.Addr)
}

// End returns the first byte address past the access.
func (a Access) End() uint64 { return a.Addr + uint64(a.Size) }

// Common capacity units (binary).
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30
	TiB = 1 << 40
)

// AlignDown rounds addr down to a multiple of align (a power of two).
func AlignDown(addr uint64, align uint64) uint64 { return addr &^ (align - 1) }

// AlignUp rounds addr up to a multiple of align (a power of two).
func AlignUp(addr uint64, align uint64) uint64 {
	return (addr + align - 1) &^ (align - 1)
}

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v uint64) bool { return v != 0 && v&(v-1) == 0 }

// Log2 returns floor(log2(v)) for v > 0.
func Log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// SplitByPage decomposes an access into per-page sub-accesses of at
// most pageSize bytes, each contained within one pageSize-aligned page.
// pageSize must be a power of two.
func SplitByPage(a Access, pageSize uint64) []Access {
	return AppendSplit(nil, a, pageSize)
}

// AppendSplit appends a's page-granular parts to dst and returns the
// extended slice. Hot paths keep a per-caller scratch slice and call
// AppendSplit(scratch[:0], ...) so the common single-page access
// allocates nothing.
func AppendSplit(dst []Access, a Access, pageSize uint64) []Access {
	if uint64(a.Size) == 0 {
		return dst
	}
	first := AlignDown(a.Addr, pageSize)
	last := AlignDown(a.End()-1, pageSize)
	if first == last {
		return append(dst, a)
	}
	addr := a.Addr
	remain := uint64(a.Size)
	for remain > 0 {
		pageEnd := AlignDown(addr, pageSize) + pageSize
		n := pageEnd - addr
		if n > remain {
			n = remain
		}
		dst = append(dst, Access{Addr: addr, Size: uint32(n), Op: a.Op, Class: a.Class})
		addr += n
		remain -= n
	}
	return dst
}

// AppendDoubling appends v to s, doubling the capacity when s is full.
// Past 256 elements append grows a slice by only 1.25x, so a table
// built one entry at a time to n entries allocates about 5n and leaves
// 4n of garbage; doubling keeps the total near 2n. The simulator's
// slot tables grow this way on every fresh platform.
func AppendDoubling[E any](s []E, v E) []E {
	if len(s) == cap(s) {
		t := make([]E, len(s), max(2*len(s), 64))
		copy(t, s)
		s = t
	}
	return append(s, v)
}
