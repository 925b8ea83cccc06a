// Package tags exercises tagflow's namespace checks: the tag namespace with
// a duplicate, a below-base value, the exempt reserved tag, and
// constant/dynamic/wildcard call sites.
package tags

const (
	// TagTaskExit is the reserved failure-notification tag: the one
	// legitimate value below TagUserBase.
	TagTaskExit = 1
	TagUserBase = 16

	TagSAM     = TagUserBase + 1
	TagCtrl    = TagUserBase + 2
	TagDupCtrl = TagUserBase + 2 // want "duplicates tags.TagCtrl"
	TagLow     = 5               // want "below TagUserBase"
)

// Task mirrors the pvm.Task message surface.
type Task struct{}

func (t *Task) Send(dst int, tag int, payload []byte) {}
func (t *Task) Recv(src, tag int) []byte              { return nil }
func (t *Task) Take(src, tag int) []byte              { return nil }

func uses(t *Task) {
	t.Send(1, TagSAM, nil)     // registered: ok
	_ = t.Recv(0, TagSAM)      // (and received, for the dataflow check)
	t.Send(1, 99, nil)         // want "unregistered tag value 99"
	t.Send(1, -1, nil)         // want "wildcard tag"
	_ = t.Recv(-1, -1)         // wildcard receive: ok
	_ = t.Take(-1, -1)         // the charge-free receive is a receive: wildcard ok
	_ = t.Take(0, 98)          // want "Take with unregistered tag value 98"
	_ = t.Recv(0, TagTaskExit) // reserved system tag: ok
	dyn := 3
	dyn++
	t.Send(1, dyn, nil) // dynamic tag: not statically checkable, ok
}
