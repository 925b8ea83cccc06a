// Package flows exercises the tagflow analyzer: every constant tag sent
// needs receive evidence somewhere, and where the payload's pack/unpack
// provenance is visible the types must be codec-compatible.
package flows

import "codec"

// Message mirrors the fabric's message shape: tagflow keys receive
// evidence off the .Tag selector.
type Message struct {
	Src, Tag int
	Payload  []byte
}

// Endpoint mirrors the fabric's messaging surface (method names and tag
// argument positions are what the analyzer matches).
type Endpoint struct{}

func (e *Endpoint) Send(dst, tag int, payload []byte) error            { return nil }
func (e *Endpoint) SendParts(dst, tag int, payload, body []byte) error { return nil }
func (e *Endpoint) Recv(src, tag int) (Message, error)                 { return Message{}, nil }

type wire struct{ N int }
type other struct{ S string }

const (
	// TagGood is sent and received with matching payload types.
	TagGood = 10
	// TagOrphan is sent but nothing in the module ever matches it.
	TagOrphan = 11
	// TagMismatch is received, but the receiver asserts a different type
	// than the sender packs.
	TagMismatch = 12
	// TagSwitched gets its receive evidence from a switch on .Tag.
	TagSwitched = 13
)

func SendGood(e *Endpoint) {
	b, _ := codec.Pack(&wire{N: 1})
	_ = e.Send(1, TagGood, b)
}

func SendOrphan(e *Endpoint) {
	_ = e.Send(1, TagOrphan, nil) // want "never be consumed"
}

func SendMismatch(e *Endpoint) {
	b, _ := codec.Pack(&wire{N: 2})
	_ = e.Send(1, TagMismatch, b) // want "receivers assert"
}

// SendPartsMismatch is a two-part send, checked like Send: its first part
// is the payload whose provenance the receivers must match.
func SendPartsMismatch(e *Endpoint, body []byte) {
	b, _ := codec.Pack(&wire{N: 4})
	_ = e.SendParts(1, TagMismatch, b, body) // want "receivers assert"
}

// SendViaHelper's payload provenance flows through encodeWire's
// recorded pack provenance.
func SendViaHelper(e *Endpoint) {
	b := encodeWire(3)
	_ = e.Send(1, TagSwitched, b)
}

func encodeWire(n int) []byte {
	b, _ := codec.Pack(&wire{N: n})
	return b
}

// SendDynamic uses a non-constant tag: exempt from both checks.
func SendDynamic(e *Endpoint, tag int) {
	_ = e.Send(1, tag, nil)
}

// recvGood provides receive evidence for TagGood and asserts the type
// the sender packs.
func recvGood(e *Endpoint) {
	m, _ := e.Recv(0, TagGood)
	v, _ := codec.Unpack(m.Payload)
	if w, ok := v.(*wire); ok {
		_ = w
	}
}

// dispatchMismatch receives TagMismatch but asserts *other where the
// sender packs *wire: a guaranteed decode drop.
func dispatchMismatch(m Message) {
	if m.Tag != TagMismatch {
		return
	}
	v, _ := codec.Unpack(m.Payload)
	if o, ok := v.(*other); ok {
		_ = o
	}
}

// dispatchSwitch evidences TagSwitched through a switch on .Tag and
// asserts the matching type via a type switch.
func dispatchSwitch(m Message) {
	switch m.Tag {
	case TagSwitched:
		v, _ := codec.Unpack(m.Payload)
		switch v.(type) {
		case *wire:
		}
	}
}
