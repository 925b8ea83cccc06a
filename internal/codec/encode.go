package codec

import "sync"

// encoder writes the canonical wire format: fixed-width big-endian
// scalars, length-prefixed aggregates, and reference-encoded pointers.
// Pointer identity within one frame is preserved via a table of already
// encoded pointees, which also makes cyclic structures safe.
//
// Encoders are pooled: steady-state packing reuses a grown buffer and an
// emptied reference table, so Pack's only allocation for scalar-only types
// is the returned frame itself.
type encoder struct {
	buf []byte
	// refs maps an already-encoded pointer to its reference index. It is
	// allocated lazily so pointer-free types never pay for it.
	refs map[uintptr]uint64
}

var encoderPool = sync.Pool{New: func() interface{} { return new(encoder) }}

// Bounds above which pooled scratch state is discarded rather than
// retained (a single huge frame must not pin its buffer forever).
const (
	maxPooledBuf  = 1 << 20
	maxPooledRefs = 1 << 10
)

func getEncoder() *encoder { return encoderPool.Get().(*encoder) }

func putEncoder(e *encoder) {
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	} else {
		e.buf = e.buf[:0]
	}
	if len(e.refs) > maxPooledRefs {
		e.refs = nil
	} else {
		for k := range e.refs {
			delete(e.refs, k)
		}
	}
	encoderPool.Put(e)
}

// addRef assigns the next reference index to a newly encoded pointee.
func (e *encoder) addRef(addr uintptr) {
	if e.refs == nil {
		e.refs = make(map[uintptr]uint64, 8)
	}
	e.refs[addr] = uint64(len(e.refs))
}

// grow pre-reserves capacity (a size hint from the compiled plan).
func (e *encoder) grow(n int) {
	if cap(e.buf)-len(e.buf) < n {
		nb := make([]byte, len(e.buf), len(e.buf)+n)
		copy(nb, e.buf)
		e.buf = nb
	}
}

// The primitive appends below write into the pooled encoder buffer,
// whose capacity converges after warm-up: growth is amortized to zero
// in steady state (TestPackAllocs pins it).

func (e *encoder) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *encoder) u16(v uint16) {
	e.buf = append(e.buf, byte(v>>8), byte(v))
}

func (e *encoder) u32(v uint32) {
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func (e *encoder) u64(v uint64) {
	e.buf = append(e.buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Pointer reference markers.
const (
	ptrNil  = 0
	ptrNew  = 1
	ptrBack = 2
)
