package sam

import "samft/internal/ft"

// A checkpoint is just another copy in some other process's cache (§4.2).
// image and privImage are that state — at the owner, provisional or committed
// at a holder (§4.4), and in a replacement process's stash (§4.5). A wire
// only moves one: handlers convert at the frame boundary (imageOf, image.wire)
// and never retain the *wire they were given.

// image is one object's contents as of checkpoint seq, backing owner's main
// copy.
type image struct {
	name Name
	// sender is who the image came from: the checkpointer whose activation
	// commits it at a holder, the contributing survivor at a recovering
	// process. owner is whose main copy it backs — the sender, or the
	// migration target when the object changes hands in that transaction.
	sender, owner int
	seq           int64
	// meta is the owner's metadata at the checkpoint; hasMeta distinguishes
	// a zero record from an absent one.
	meta    ft.ObjectMeta
	hasMeta bool
	// body is the owner's packed frame, verbatim, so recovery restores the
	// exact checkpointed contents.
	body []byte
}

// privImage is a process's packed private state (§4.2) as of checkpoint seq.
type privImage struct {
	seq  int64
	body []byte
}

// imageOf reads the image a kCkptCopy or kRecoverData frame carries.
func imageOf(w *wire) *image {
	return &image{
		name: Name(w.Name), sender: w.SrcRank, owner: w.Owner, seq: w.Seq,
		meta: w.Meta, hasMeta: w.HasMeta, body: w.Body,
	}
}

// wire frames the image as kind (kCkptCopy or kRecoverData), outside any
// transaction; send fills in the sender.
func (im *image) wire(kind int) wire {
	return wire{
		Kind: kind, Name: uint64(im.name), Owner: im.owner, Seq: im.seq,
		Meta: im.meta, HasMeta: im.hasMeta, Body: im.body, Piece: -1,
	}
}
