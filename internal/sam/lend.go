package sam

import (
	"fmt"
	"reflect"

	"samft/internal/codec"
)

// A consumed copy lends its storage (DESIGN §7). UseValue's accessors do not
// outlive their step, so once the step that last read a cached value copy has
// ended, nothing in the application reaches that copy's contents: an arriving
// copy of the same type decodes into them instead of into fresh storage. The
// lending copy stays usable — it keeps the frame its contents came in, and a
// later read decodes it again — so lending sends nothing, charges no modeled
// time and counts no miss.

// lendQueue holds the consumed cached copies of one registered type, oldest
// release (DoneValue) first. Only a copy the application has read joins one.
type lendQueue struct{ head, tail *object }

// offerLend queues o, a cached value copy whose last accessor has just
// ended, as the newest lender of its type.
func (p *Proc) offerLend(o *object) {
	t := reflect.TypeOf(o.data)
	if t == nil || t.Kind() != reflect.Pointer {
		return
	}
	o.unlend()
	q := p.lenders[t.Elem()]
	if q == nil {
		q = &lendQueue{}
		p.lenders[t.Elem()] = q
	}
	o.lendQ, o.lendPrev = q, q.tail
	if q.tail != nil {
		q.tail.lendNext = o
	} else {
		q.head = o
	}
	q.tail = o
}

// unlend takes o out of its lenders queue, if it waits in one.
func (o *object) unlend() {
	q := o.lendQ
	if q == nil {
		return
	}
	if o.lendPrev != nil {
		o.lendPrev.lendNext = o.lendNext
	} else {
		q.head = o.lendNext
	}
	if o.lendNext != nil {
		o.lendNext.lendPrev = o.lendPrev
	} else {
		q.tail = o.lendPrev
	}
	o.lendQ, o.lendPrev, o.lendNext = nil, nil, nil
}

// canLend reports whether a queued copy's storage may take a frame, short
// of the step rule: it is still a decoded cached copy, with no accessor,
// waiter or pending image, and a frame to decode its contents from again.
func (o *object) canLend() bool {
	return !o.isMain && o.state == stPresent && o.data != nil && o.pins == 0 &&
		len(o.waiters) == 0 && o.pending == nil && o.frame() != nil
}

// lender takes the copy a frame of type t decodes into out of its queue: the
// one released longest ago, if the step that last read it has ended. Copies
// that cannot lend leave the queue as they are met. The first copy read in
// the current step ends the search: every copy behind it was released in
// this step too, since accessors do not span a boundary (cmdGate).
func (p *Proc) lender(t reflect.Type) *object {
	q := p.lenders[t]
	if q == nil {
		return nil
	}
	for o := q.head; o != nil; o = q.head {
		if !o.canLend() {
			o.unlend()
			continue
		}
		if o.usedAt >= p.stepsDone {
			return nil
		}
		o.unlend()
		return o
	}
	return nil
}

// decodeCopy decodes frame, contents arriving as a cached copy (onObjData,
// applyCkptCopy), into the storage of a consumed copy that may lend it, or
// into fresh storage when none may.
func (p *Proc) decodeCopy(frame []byte) (interface{}, error) {
	t, err := codec.FrameType(frame)
	if err != nil {
		return nil, err
	}
	l := p.lender(t)
	if l == nil {
		return codec.Unpack(frame)
	}
	data := l.data
	l.data, l.lent = nil, true
	p.st.LentDecodes.Add(1)
	if err := codec.UnpackInto(frame, data); err != nil {
		return nil, err
	}
	return data, nil
}

// contents returns a usable copy's contents, decoding a lent copy again from
// its frame.
func (p *Proc) contents(o *object) (interface{}, error) {
	if !o.lent {
		return o.data, nil
	}
	data, err := codec.Unpack(o.frame())
	if err != nil {
		return nil, fmt.Errorf("contents of %v: %w", o.name, err)
	}
	o.data, o.lent = data, false
	p.st.LentRedecodes.Add(1)
	return data, nil
}
