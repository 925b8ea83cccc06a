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
// first use. Register refused recursive types, so compiling t's nested
// plans ends. Two callers racing on a new type may both compile it; the
// first plan stored wins. Every later call is a lock-free cache hit.
func planFor(t reflect.Type) *plan {
	if pi, ok := planCache.Load(t); ok {
		return pi.(*plan)
	}
	pi, _ := planCache.LoadOrStore(t, compile(t))
	return pi.(*plan)
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
				b, err := d.raw()
				if err != nil {
					return err
				}
				rv.SetString(string(b))
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
		// Pack and Unpack only reach registered types, and Register
		// rejected every type whose graph reaches such a kind.
		panic(fmt.Sprintf("codec: no plan for kind %v", t.Kind()))
	}
}

// encodable returns why values of t cannot be encoded whole, naming the
// path from t to the first field the wire format cannot carry: an
// unexported field ("Nested.Inner.hidden is unexported"), a kind with no
// plan ("withMap.Tags: cannot encode kind map"), or a type that reaches
// itself through a pointer or a slice ("list.Next: cannot encode recursive
// type codec.list"), whose values could be cyclic. It returns nil when
// every type reachable from t has a plan.
func encodable(t reflect.Type) error {
	name := t.Name()
	if name == "" {
		name = t.String()
	}
	return reaches(t, name, make(map[reflect.Type]bool))
}

// reaches walks t's type graph depth first. open[t] is true while t's own
// walk is in progress, so meeting t again then is recursion, and false once
// t was walked and found encodable.
func reaches(t reflect.Type, path string, open map[reflect.Type]bool) error {
	if inProgress, seen := open[t]; seen {
		if inProgress {
			return fmt.Errorf("%s: cannot encode recursive type %v", path, t)
		}
		return nil
	}
	open[t] = true
	defer func() { open[t] = false }()
	switch t.Kind() {
	case reflect.Bool, reflect.String,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64:
		return nil
	case reflect.Slice, reflect.Array:
		return reaches(t.Elem(), path+"[]", open)
	case reflect.Ptr:
		return reaches(t.Elem(), path, open)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			fp := path + "." + f.Name
			if !f.IsExported() {
				return fmt.Errorf("%s is unexported", fp)
			}
			if err := reaches(f.Type, fp, open); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%s: cannot encode kind %v", path, t.Kind())
}

// resize gives the slice rv n elements to decode into, reusing its backing
// array when that has room (UnpackInto; a fresh value's slices are nil). A
// nil rv decoding no elements becomes empty, the shared zero-capacity
// slice of its type, so nil and empty stay distinct without allocating.
func resize(rv reflect.Value, n int, empty reflect.Value) {
	switch {
	case n == 0 && rv.IsNil():
		rv.Set(empty)
	case rv.Cap() >= n:
		rv.SetLen(n)
	default:
		rv.Set(reflect.MakeSlice(rv.Type(), n, n))
	}
}

func compileSlice(t reflect.Type) *plan {
	empty := reflect.MakeSlice(t, 0, 0)
	if t.Elem().Kind() == reflect.Uint8 {
		// Byte slices (including named byte-like element types) transmit as
		// a raw length-prefixed run.
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
					rv.SetZero()
					return nil
				}
				b, err := d.raw()
				if err != nil {
					return err
				}
				resize(rv, len(b), empty)
				copy(rv.Bytes(), b)
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
				rv.SetZero()
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
			resize(rv, int(n), empty)
			for i := 0; i < int(n); i++ {
				if err := ep.dec(d, rv.Index(i)); err != nil {
					return err
				}
			}
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

// compilePtr encodes a pointer as a tree: a nil flag, then the pointee.
// Decoding allocates a fresh pointee, so a value the destination pointed
// at is never written through.
func compilePtr(t reflect.Type) *plan {
	ep := planFor(t.Elem())
	et := t.Elem()
	return &plan{
		fixed: -1,
		enc: func(e *encoder, rv reflect.Value) error {
			if rv.IsNil() {
				e.u8(0)
				return nil
			}
			e.u8(1)
			return ep.enc(e, rv.Elem())
		},
		dec: func(d *decoder, rv reflect.Value) error {
			present, err := d.u8()
			if err != nil {
				return err
			}
			switch present {
			case 0:
				rv.SetZero()
				return nil
			case 1:
				p := reflect.New(et)
				rv.Set(p)
				return ep.dec(d, p.Elem())
			default:
				return fmt.Errorf("%w: bad pointer flag %d", ErrCorrupt, present)
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
	// Every field is encoded: Register refused types with unexported
	// fields, so no state is dropped from a frame.
	var fields []fieldPlan
	fixed := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
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
