package sam

import "samft/internal/trace"

// A replacement replays from its last checkpoint and reads again what its
// failed incarnation read since (§4.5). Fetched one at a time, those reads
// queue behind survivors whose clocks are already ahead. So every survivor,
// after its kRecoverFin, re-sends as an ordinary kObjData push each value it
// owns that the replay may read again, and the copies travel in parallel
// (DESIGN §7 "A survivor re-sends the replay's inputs"). The re-send is a
// hint: a value not re-sent is fetched as before, and a copy that arrives
// after the replay fetched the value is dropped by onObjData's
// first-copy-wins rule.
//
// What a value's owner records is two bit sets on the object (sentTo,
// usedBy) and, per peer, the reports of its current epoch: so a push or a
// read reply allocates nothing for it (TestSendBookkeepingAllocatesNothing)
// and no object grows.

// useEpoch is what this process knows of one peer's use reports since the
// peer's clock last moved: at is the peer's virtual time when they arrived,
// and objs the owned values they named (duplicates allowed).
type useEpoch struct {
	at   int64
	objs []*object
}

// rankBit is rank's bit in an object's rank sets. Ranks from 64 up have
// none (a shift by the width or more is 0): their sends are not recorded,
// and their replays fetch everything, as without the re-send.
func rankBit(rank int) uint64 { return 1 << uint(rank) }

// noteSent records that o's contents left for rank, as a push or a read
// reply, and that rank has reported no use of them since.
func (p *Proc) noteSent(o *object, rank int) {
	b := rankBit(rank)
	o.sentTo |= b
	o.usedBy &^= b
}

// noteReported records rank's report of a use of o, at rank's virtual time
// as the report's stamp made it known here. A report after rank's clock
// moved on starts a new epoch: the values reported in the last one stop
// being replay inputs, since a process's clock ticks when it begins a
// checkpoint and a use report goes out at the boundary before that
// boundary's checkpoint begins. (It ticks at a free too; the value is then
// fetched again if the replay reads it, as without the re-send.)
func (p *Proc) noteReported(o *object, rank int) {
	b := rankBit(rank)
	if o.sentTo&b == 0 {
		return
	}
	e := &p.useEpochs[rank]
	if t := p.clocks.T[rank]; t > e.at {
		for _, u := range e.objs {
			if u.usedBy&b != 0 {
				u.sentTo &^= b
				u.usedBy &^= b
			}
		}
		clear(e.objs)
		e.objs, e.at = e.objs[:0], t
	}
	if o.usedBy&b == 0 {
		o.usedBy |= b
		e.objs = append(e.objs, o)
	}
}

// mayReread reports whether a replacement of rank may read o again: o was
// sent there, and rank either reported no use of it since or reported one
// after the last move of its clock known here.
func (p *Proc) mayReread(o *object, rank int) bool {
	b := rankBit(rank)
	if o.sentTo&b == 0 {
		return false
	}
	return o.usedBy&b == 0 || p.clocks.T[rank] <= p.useEpochs[rank].at
}

// resend pushes o to rank's replacement as a replay input.
func (p *Proc) resend(o *object, rank int) {
	n := p.sendObject(o, kObjData, rank, nil)
	p.st.Resent.Add(1)
	p.st.ResentBytes.Add(int64(n))
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamResend, Name: uint64(o.name), Dst: int64(rank), Bytes: n})
	}
}
