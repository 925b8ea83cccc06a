package codec

import (
	"fmt"
	"reflect"
	"sync"
)

// decoder mirrors encoder: it walks the compiled plan for the static type
// and consumes the canonical byte stream, rebuilding pointer identity from
// the reference table. Decoders are pooled; only the pointee table's
// backing array is retained across uses.
type decoder struct {
	buf []byte
	off int
	// ptrs holds decoded pointees in reference-index order.
	ptrs []reflect.Value
}

var decoderPool = sync.Pool{New: func() interface{} { return new(decoder) }}

func getDecoder(b []byte) *decoder {
	d := decoderPool.Get().(*decoder)
	d.buf = b
	d.off = 0
	return d
}

func putDecoder(d *decoder) {
	d.buf = nil
	if len(d.ptrs) > maxPooledRefs {
		d.ptrs = nil
	} else {
		// Clear the elements so the pool does not pin decoded objects.
		for i := range d.ptrs {
			d.ptrs[i] = reflect.Value{}
		}
		d.ptrs = d.ptrs[:0]
	}
	decoderPool.Put(d)
}

func (d *decoder) remaining() int { return len(d.buf) - d.off }

func (d *decoder) need(n int) error {
	if d.remaining() < n {
		return fmt.Errorf("%w: need %d bytes, have %d", ErrCorrupt, n, d.remaining())
	}
	return nil
}

func (d *decoder) u8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := uint16(d.buf[d.off])<<8 | uint16(d.buf[d.off+1])
	d.off += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	b := d.buf[d.off:]
	v := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	b := d.buf[d.off:]
	v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	d.off += 8
	return v, nil
}

// raw consumes a length-prefixed run and returns it in place: the bytes
// alias the frame, so the caller copies what it keeps.
func (d *decoder) raw() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}
