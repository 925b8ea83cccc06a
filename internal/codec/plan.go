package codec

import (
	"fmt"
	"math"
	"reflect"
	"sync"
)

// A plan is the compiled marshaling program for one type: the type graph is
// walked once (at Register time, or lazily on first use for nested types)
// and flattened into typed encode/decode closures, so Pack/Unpack dispatch
// over precompiled steps instead of re-switching on reflect.Kind for every
// value. This is the moral equivalent of the SAM preprocessor emitting
// per-type marshaling code at compile time.
type plan struct {
	enc func(e *encoder, rv reflect.Value) error
	dec func(d *decoder, rv reflect.Value) error
	// fixed is the exact wire size for types whose encoding never varies
	// (scalars and aggregates of scalars), or -1. Pack uses it as a buffer
	// size hint so scalar-only types encode without buffer growth.
	fixed int
}

var planCache sync.Map // reflect.Type -> *plan

// planFor returns the compiled plan for t, compiling and caching it on
// first use. Recursive types terminate through a late-bound placeholder:
// the placeholder is cached before compilation starts, and inner
// references to t resolve through it.
//
// The miss path (placeholder + compile) runs once per type for the life
// of the process; every later call is a lock-free cache hit.
func planFor(t reflect.Type) *plan {
	if pi, ok := planCache.Load(t); ok {
		return pi.(*plan)
	}
	var (
		ready sync.WaitGroup
		built *plan
	)
	ready.Add(1)
	placeholder := &plan{
		enc: func(e *encoder, rv reflect.Value) error {
			ready.Wait()
			return built.enc(e, rv)
		},
		dec: func(d *decoder, rv reflect.Value) error {
			ready.Wait()
			return built.dec(d, rv)
		},
		fixed: -1,
	}
	if prev, loaded := planCache.LoadOrStore(t, placeholder); loaded {
		return prev.(*plan)
	}
	built = compile(t)
	ready.Done()
	planCache.Store(t, built)
	return built
}

// compile builds the plan for one type. The closures reproduce the wire
// format of the original per-value switch exactly.
func compile(t reflect.Type) *plan {
	switch t.Kind() {
	case reflect.Bool:
		return &plan{
			fixed: 1,
			enc: func(e *encoder, rv reflect.Value) error {
				if rv.Bool() {
					e.u8(1)
				} else {
					e.u8(0)
				}
				return nil
			},
			dec: func(d *decoder, rv reflect.Value) error {
				b, err := d.u8()
				if err != nil {
					return err
				}
				rv.SetBool(b != 0)
				return nil
			},
		}
	case reflect.Int, reflect.Int64:
		return &plan{
			fixed: 8,
			enc: func(e *encoder, rv reflect.Value) error {
				e.u64(uint64(rv.Int()))
				return nil
			},
			dec: func(d *decoder, rv reflect.Value) error {
				v, err := d.u64()
				if err != nil {
					return err
				}
				rv.SetInt(int64(v))
				return nil
			},
		}
	case reflect.Int8, reflect.Int16, reflect.Int32:
		return &plan{
			fixed: 8,
			enc: func(e *encoder, rv reflect.Value) error {
				e.u64(uint64(rv.Int()))
				return nil
			},
			dec: func(d *decoder, rv reflect.Value) error {
				v, err := d.u64()
				if err != nil {
					return err
				}
				rv.SetInt(int64(v))
				if rv.Int() != int64(v) {
					return fmt.Errorf("%w: integer overflow for %v", ErrCorrupt, rv.Type())
				}
				return nil
			},
		}
	case reflect.Uint, reflect.Uint64, reflect.Uintptr:
		return &plan{
			fixed: 8,
			enc: func(e *encoder, rv reflect.Value) error {
				e.u64(rv.Uint())
				return nil
			},
			dec: func(d *decoder, rv reflect.Value) error {
				v, err := d.u64()
				if err != nil {
					return err
				}
				rv.SetUint(v)
				return nil
			},
		}
	case reflect.Uint8, reflect.Uint16, reflect.Uint32:
		return &plan{
			fixed: 8,
			enc: func(e *encoder, rv reflect.Value) error {
				e.u64(rv.Uint())
				return nil
			},
			dec: func(d *decoder, rv reflect.Value) error {
				v, err := d.u64()
				if err != nil {
					return err
				}
				rv.SetUint(v)
				if rv.Uint() != v {
					return fmt.Errorf("%w: integer overflow for %v", ErrCorrupt, rv.Type())
				}
				return nil
			},
		}
	case reflect.Float32, reflect.Float64:
		return &plan{
			fixed: 8,
			enc: func(e *encoder, rv reflect.Value) error {
				e.u64(math.Float64bits(rv.Float()))
				return nil
			},
			dec: func(d *decoder, rv reflect.Value) error {
				v, err := d.u64()
				if err != nil {
					return err
				}
				rv.SetFloat(math.Float64frombits(v))
				return nil
			},
		}
	case reflect.String:
		return &plan{
			fixed: -1,
			enc: func(e *encoder, rv reflect.Value) error {
				e.str(rv.String())
				return nil
			},
			dec: func(d *decoder, rv reflect.Value) error {
				s, err := d.str()
				if err != nil {
					return err
				}
				rv.SetString(s)
				return nil
			},
		}
	case reflect.Slice:
		return compileSlice(t)
	case reflect.Array:
		return compileArray(t)
	case reflect.Ptr:
		return compilePtr(t)
	case reflect.Struct:
		return compileStruct(t)
	default:
		err := fmt.Errorf("codec: cannot encode kind %v", t.Kind())
		return &plan{
			fixed: -1,
			enc:   func(*encoder, reflect.Value) error { return err },
			dec:   func(*decoder, reflect.Value) error { return err },
		}
	}
}

func compileSlice(t reflect.Type) *plan {
	if t.Elem().Kind() == reflect.Uint8 {
		// Byte slices (including named byte-like element types) transmit as
		// a raw length-prefixed run.
		isPlainByte := t.Elem() == reflect.TypeOf(byte(0))
		return &plan{
			fixed: -1,
			enc: func(e *encoder, rv reflect.Value) error {
				if rv.IsNil() {
					e.u8(0)
					return nil
				}
				e.u8(1)
				e.bytes(rv.Bytes())
				return nil
			},
			dec: func(d *decoder, rv reflect.Value) error {
				present, err := d.u8()
				if err != nil {
					return err
				}
				if present == 0 {
					rv.Set(reflect.Zero(rv.Type()))
					return nil
				}
				b, err := d.byteSlice()
				if err != nil {
					return err
				}
				if isPlainByte {
					rv.SetBytes(b)
					return nil
				}
				s := reflect.MakeSlice(rv.Type(), len(b), len(b))
				for i, bb := range b {
					s.Index(i).SetUint(uint64(bb))
				}
				rv.Set(s)
				return nil
			},
		}
	}
	ep := planFor(t.Elem())
	return &plan{
		fixed: -1,
		enc: func(e *encoder, rv reflect.Value) error {
			if rv.IsNil() {
				e.u8(0)
				return nil
			}
			e.u8(1)
			n := rv.Len()
			e.u32(uint32(n))
			for i := 0; i < n; i++ {
				if err := ep.enc(e, rv.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
		dec: func(d *decoder, rv reflect.Value) error {
			present, err := d.u8()
			if err != nil {
				return err
			}
			if present == 0 {
				rv.Set(reflect.Zero(rv.Type()))
				return nil
			}
			n, err := d.u32()
			if err != nil {
				return err
			}
			if int(n) > d.remaining() {
				// Every element takes at least one byte; reject absurd
				// lengths before allocating.
				return fmt.Errorf("%w: slice length %d exceeds frame", ErrCorrupt, n)
			}
			s := reflect.MakeSlice(rv.Type(), int(n), int(n))
			for i := 0; i < int(n); i++ {
				if err := ep.dec(d, s.Index(i)); err != nil {
					return err
				}
			}
			rv.Set(s)
			return nil
		},
	}
}

func compileArray(t reflect.Type) *plan {
	ep := planFor(t.Elem())
	n := t.Len()
	fixed := -1
	if ep.fixed >= 0 {
		fixed = ep.fixed * n
	}
	return &plan{
		fixed: fixed,
		enc: func(e *encoder, rv reflect.Value) error {
			for i := 0; i < n; i++ {
				if err := ep.enc(e, rv.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
		dec: func(d *decoder, rv reflect.Value) error {
			for i := 0; i < n; i++ {
				if err := ep.dec(d, rv.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func compilePtr(t reflect.Type) *plan {
	ep := planFor(t.Elem())
	et := t.Elem()
	return &plan{
		fixed: -1,
		enc: func(e *encoder, rv reflect.Value) error {
			if rv.IsNil() {
				e.u8(ptrNil)
				return nil
			}
			addr := rv.Pointer()
			if idx, ok := e.refs[addr]; ok {
				e.u8(ptrBack)
				e.u64(idx)
				return nil
			}
			e.addRef(addr)
			e.u8(ptrNew)
			return ep.enc(e, rv.Elem())
		},
		dec: func(d *decoder, rv reflect.Value) error {
			marker, err := d.u8()
			if err != nil {
				return err
			}
			switch marker {
			case ptrNil:
				rv.Set(reflect.Zero(rv.Type()))
				return nil
			case ptrNew:
				p := reflect.New(et)
				// Register before decoding the pointee so cycles resolve.
				d.ptrs = append(d.ptrs, p)
				rv.Set(p)
				return ep.dec(d, p.Elem())
			case ptrBack:
				idx, err := d.u64()
				if err != nil {
					return err
				}
				if idx >= uint64(len(d.ptrs)) {
					return fmt.Errorf("%w: backreference %d of %d", ErrCorrupt, idx, len(d.ptrs))
				}
				p := d.ptrs[idx]
				if p.Type() != rv.Type() {
					return fmt.Errorf("%w: backreference type %v, want %v", ErrCorrupt, p.Type(), rv.Type())
				}
				rv.Set(p)
				return nil
			default:
				return fmt.Errorf("%w: bad pointer marker %d", ErrCorrupt, marker)
			}
		},
	}
}

func compileStruct(t reflect.Type) *plan {
	type fieldPlan struct {
		idx     int
		sub     *plan
		errName string
	}
	var fields []fieldPlan
	fixed := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.PkgPath != "" {
			// Unexported fields are process-local state and are not
			// transmitted, matching how SAM only communicates the declared
			// shared representation.
			continue
		}
		sub := planFor(f.Type)
		fields = append(fields, fieldPlan{i, sub, t.Name() + "." + f.Name})
		if fixed >= 0 && sub.fixed >= 0 {
			fixed += sub.fixed
		} else {
			fixed = -1
		}
	}
	return &plan{
		fixed: fixed,
		enc: func(e *encoder, rv reflect.Value) error {
			for _, f := range fields {
				if err := f.sub.enc(e, rv.Field(f.idx)); err != nil {
					return fmt.Errorf("field %s: %w", f.errName, err)
				}
			}
			return nil
		},
		dec: func(d *decoder, rv reflect.Value) error {
			for _, f := range fields {
				if err := f.sub.dec(d, rv.Field(f.idx)); err != nil {
					return fmt.Errorf("field %s: %w", f.errName, err)
				}
			}
			return nil
		},
	}
}
