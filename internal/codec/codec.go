// Package codec is the reproduction of SAM's preprocessor-generated
// marshaling support. SAM transmits shared data in units of whole objects
// of user-defined types, including types with internal pointers that are
// not stored contiguously; in heterogeneous clusters it also converts
// between machine representations.
//
// This package provides the same capability for Go types via reflection:
// a process-wide type registry (playing the role of the preprocessor's
// generated tables) and a canonical, architecture-independent wire format
// (fixed-width big-endian scalars, explicit lengths). Pointers are encoded
// as trees: a nil flag, then the pointee, so a pointee reached twice is
// written twice and decodes as two equal, distinct values, as with
// encoding/gob. Every frame carries a CRC-32 checksum.
//
// As with the preprocessor, a type is either described whole or rejected:
// Register panics on a type whose field graph reaches an unexported field,
// a kind the wire format has no encoding for (maps, complex numbers,
// interfaces, channels, functions), or the type itself again through a
// pointer or a slice (a recursive type, whose values could be cyclic),
// naming the path to that field. Nothing is dropped from a frame silently,
// and every registration is checked when its package initialises.
package codec

import (
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"sync"
)

// Errors returned by the codec.
var (
	ErrNotRegistered = errors.New("codec: type not registered")
	ErrCorrupt       = errors.New("codec: corrupt frame")
	ErrChecksum      = errors.New("codec: checksum mismatch")
)

// registry maps type names to reflect.Types, standing in for the tables the
// SAM preprocessor generates for each user-defined type.
type registry struct {
	mu      sync.RWMutex
	byName  map[string]reflect.Type
	nameFor map[reflect.Type]string
}

var defaultRegistry = &registry{
	byName:  make(map[string]reflect.Type),
	nameFor: make(map[reflect.Type]string),
}

// Register associates a name with the dynamic type of sample. The sample is
// typically a zero value: Register("Body", Body{}). Registering the same
// name/type pair again is a no-op; re-registering a name with a different
// type panics, because it indicates two incompatible modules sharing a
// cluster. A type the codec cannot encode whole panics too, and is left
// unregistered.
func Register(name string, sample interface{}) {
	t := reflect.TypeOf(sample)
	if t == nil {
		panic("codec: Register with nil sample")
	}
	// Registering a pointer registers its element type; whole objects are
	// always transmitted by value at top level.
	for t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	if err := encodable(t); err != nil {
		panic(fmt.Sprintf("codec: Register(%q): %v", name, err))
	}
	defaultRegistry.mu.Lock()
	prev, known := defaultRegistry.byName[name]
	if known && prev != t {
		defaultRegistry.mu.Unlock()
		panic(fmt.Sprintf("codec: name %q registered for both %v and %v", name, prev, t))
	}
	if !known {
		defaultRegistry.byName[name] = t
		defaultRegistry.nameFor[t] = name
	}
	defaultRegistry.mu.Unlock()
	// Compile the type's marshaling plan once, at registration — the
	// compile-time analogue of the SAM preprocessor generating per-type
	// marshaling code. Pack/Unpack then dispatch over the precompiled plan.
	planFor(t)
}

// typeName returns the registered name for v's type (pointers are
// dereferenced), or "" if unregistered.
func typeName(v interface{}) string {
	t := reflect.TypeOf(v)
	for t != nil && t.Kind() == reflect.Ptr {
		t = t.Elem()
	}
	defaultRegistry.mu.RLock()
	defer defaultRegistry.mu.RUnlock()
	return defaultRegistry.nameFor[t]
}

// lookupType finds the type registered under name, read straight from a
// frame: indexing the map by string(name) makes no copy of it.
func lookupType(name []byte) (reflect.Type, bool) {
	defaultRegistry.mu.RLock()
	defer defaultRegistry.mu.RUnlock()
	t, ok := defaultRegistry.byName[string(name)]
	return t, ok
}

// Frame layout:
//
//	magic   uint16  0x5A4D ("SM")
//	name    string  registered type name
//	body    bytes   encoded value
//	crc32   uint32  over everything preceding it
const frameMagic uint16 = 0x5A4D

// Pack serializes v (a value or pointer to a value of a registered type)
// into a self-describing frame.
//
// Once v's type has been packed before (its plan compiled, the pooled
// encoder grown to the frame's size), Pack makes exactly one allocation:
// the frame it returns. TestPackAllocs pins the contract. A caller that
// owns a buffer to reuse packs into it with AppendPack instead.
func Pack(v interface{}) ([]byte, error) {
	e := getEncoder()
	defer putEncoder(e)
	if err := e.frame(v); err != nil {
		return nil, err
	}
	out := make([]byte, len(e.buf))
	copy(out, e.buf)
	return out, nil
}

// AppendPack appends v's frame, the bytes Pack would return, to dst and
// returns the extended slice. The encoder writes straight into dst's spare
// capacity, so once v's type has been packed AppendPack allocates nothing
// when dst has room for the frame; when it has not, the buffer grows by at
// least doubling (one allocation for a type of fixed size). On error dst is
// returned at its old length, though its spare capacity may have been
// written. TestAppendPackAllocs pins the contract.
func AppendPack(dst []byte, v interface{}) ([]byte, error) {
	e := getEncoder()
	scratch := e.buf
	e.buf = dst
	err := e.frame(v)
	out := e.buf
	e.buf = scratch
	putEncoder(e)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// frame appends v's frame to e.buf.
func (e *encoder) frame(v interface{}) error {
	rv := reflect.ValueOf(v)
	for rv.Kind() == reflect.Ptr {
		if rv.IsNil() {
			return errors.New("codec: Pack of nil pointer")
		}
		rv = rv.Elem()
	}
	name := typeName(v)
	if name == "" {
		return fmt.Errorf("%w: %T", ErrNotRegistered, v)
	}
	pl := planFor(rv.Type())
	if pl.fixed >= 0 {
		// Size hint: header + body + checksum, so scalar-only types encode
		// with zero buffer growth.
		e.grow(2 + 4 + len(name) + pl.fixed + 4)
	}
	start := len(e.buf)
	e.u16(frameMagic)
	e.str(name)
	if err := pl.enc(e, rv); err != nil {
		return err
	}
	e.u32(crc32.ChecksumIEEE(e.buf[start:]))
	return nil
}

// Verify checks a frame's length and checksum without decoding it, so a
// frame can be passed on or stored as it is, and decoded later, once it is
// known to be intact. Unpack verifies the same way before it decodes.
func Verify(frame []byte) error {
	if len(frame) < 6 {
		return fmt.Errorf("%w: short frame (%d bytes)", ErrCorrupt, len(frame))
	}
	body, sumBytes := frame[:len(frame)-4], frame[len(frame)-4:]
	want := uint32(sumBytes[0])<<24 | uint32(sumBytes[1])<<16 | uint32(sumBytes[2])<<8 | uint32(sumBytes[3])
	if crc32.ChecksumIEEE(body) != want {
		return ErrChecksum
	}
	return nil
}

// Unpack deserializes a frame produced by Pack. It returns a pointer to a
// freshly allocated value of the registered type (so the result is always
// addressable), e.g. *Body for a frame packed from Body or *Body. Once the
// type has been unpacked before, a frame of a flat struct costs exactly
// one allocation, the value (TestUnpackAllocs).
func Unpack(data []byte) (interface{}, error) {
	p, err := unpack(data, reflect.Value{})
	if err != nil {
		return nil, err
	}
	return p.Interface(), nil
}

// UnpackInto deserializes a frame produced by Pack into *dst, which must be
// a non-nil pointer to a value of the frame's registered type; a frame of
// another type is ErrCorrupt. The result is the value Unpack would return,
// but built in dst's storage: every field is overwritten, and a slice keeps
// its backing array when that has room for the decoded elements, so a
// caller that decodes frame after frame into one value stops allocating
// once its slices have grown. A nil slice and an empty one stay distinct.
// Pointees are always allocated afresh, so whatever dst's pointers held is
// never written through. The caller must own dst's slices outright: their
// old contents are overwritten in place. On error dst holds a partial
// decode.
func UnpackInto(data []byte, dst interface{}) error {
	p := reflect.ValueOf(dst)
	if p.Kind() != reflect.Ptr || p.IsNil() {
		return fmt.Errorf("codec: UnpackInto needs a non-nil pointer, not %T", dst)
	}
	_, err := unpack(data, p)
	return err
}

// FrameType returns the registered type a frame holds, read from its
// header without decoding the body or checking the checksum: UnpackInto can
// decode the frame into a *T for the T returned. It allocates nothing.
func FrameType(frame []byte) (reflect.Type, error) {
	d := decoder{buf: frame}
	return d.header()
}

// header consumes a frame's magic and type name and returns the type
// registered under that name.
func (d *decoder) header() (reflect.Type, error) {
	magic, err := d.u16()
	if err != nil {
		return nil, err
	}
	if magic != frameMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	name, err := d.raw()
	if err != nil {
		return nil, err
	}
	t, ok := lookupType(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotRegistered, name)
	}
	return t, nil
}

// unpack decodes a frame into *p, or into a fresh value of the frame's
// type when p is the zero Value, and returns the pointer it decoded into.
func unpack(data []byte, p reflect.Value) (reflect.Value, error) {
	if err := Verify(data); err != nil {
		return p, err
	}
	d := getDecoder(data[:len(data)-4])
	defer putDecoder(d)
	t, err := d.header()
	if err != nil {
		return p, err
	}
	if !p.IsValid() {
		p = reflect.New(t)
	} else if p.Type().Elem() != t {
		return p, fmt.Errorf("%w: a %v frame cannot decode into %v", ErrCorrupt, t, p.Type())
	}
	if err := planFor(t).dec(d, p.Elem()); err != nil {
		return p, err
	}
	if d.remaining() != 0 {
		return p, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return p, nil
}

// DeepCopy copies a value of a registered type through the wire format.
// SAM uses this to hand a local process its own copy of an object without
// aliasing the owner's storage (the simulated processes must behave like
// separate address spaces). The copy is a tree: a pointee the original
// reached twice is copied twice.
func DeepCopy(v interface{}) (interface{}, error) {
	b, err := Pack(v)
	if err != nil {
		return nil, err
	}
	return Unpack(b)
}
