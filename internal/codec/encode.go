package codec

import "sync"

// encoder writes the canonical wire format: fixed-width big-endian
// scalars, length-prefixed aggregates, and pointers as trees (a nil flag,
// then the pointee). A pointee reached twice is written twice; Register
// refuses recursive types, so every walk ends.
//
// Encoders are pooled: steady-state packing reuses a grown buffer, so
// Pack's only allocation is the returned frame itself. AppendPack lends a
// pooled encoder the caller's buffer for one frame and takes its own
// scratch back after.
type encoder struct {
	buf []byte
}

var encoderPool = sync.Pool{New: func() interface{} { return new(encoder) }}

// maxPooledBuf is the capacity above which a pooled buffer is dropped
// rather than retained (a single huge frame must not pin it forever).
const maxPooledBuf = 1 << 20

func getEncoder() *encoder { return encoderPool.Get().(*encoder) }

func putEncoder(e *encoder) {
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	} else {
		e.buf = e.buf[:0]
	}
	encoderPool.Put(e)
}

// grow reserves room for n more bytes: a size hint from the compiled
// plan, or the next primitive's width. A buffer that must grow at least
// doubles, so encoding an N-byte frame into an empty buffer allocates
// about 2N in all, where append's growth of large slices (1.25×) would
// allocate about 5N.
func (e *encoder) grow(n int) {
	if cap(e.buf)-len(e.buf) < n {
		e.realloc(n)
	}
}

// realloc is grow's slow path, apart so that grow inlines into every
// primitive.
func (e *encoder) realloc(n int) {
	nb := make([]byte, len(e.buf), max(2*cap(e.buf), len(e.buf)+n))
	copy(nb, e.buf)
	e.buf = nb
}

// The primitive appends below write into the encoder's buffer, pooled or
// lent, whose capacity converges after warm-up: growth is amortized to
// zero in steady state (TestPackAllocs and TestAppendPackAllocs pin it).

func (e *encoder) u8(v uint8) {
	e.grow(1)
	e.buf = append(e.buf, v)
}

func (e *encoder) u16(v uint16) {
	e.grow(2)
	e.buf = append(e.buf, byte(v>>8), byte(v))
}

func (e *encoder) u32(v uint32) {
	e.grow(4)
	e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func (e *encoder) u64(v uint64) {
	e.grow(8)
	e.buf = append(e.buf,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func (e *encoder) str(s string) {
	e.grow(4 + len(s))
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bytes(b []byte) {
	e.grow(4 + len(b))
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}
