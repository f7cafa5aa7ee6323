package agent

import (
	"context"

	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// Letter is one decoded message and the stage it belongs to: the pass of
// a tree round, the tick of a push-sum round, stage 0 for reports and
// updates. A kind outside the rounds keys as round −1.
type Letter struct {
	From, Round, Stage int
	Env                protocol.Envelope
	size               int // payload bytes, for the meter
}

// After reports whether the letter belongs to a stage after (round, stage).
func (l *Letter) After(round, stage int) bool {
	return l.Round > round || (l.Round == round && l.Stage > stage)
}

// Inbox is a node's one receive path, shared by every aggregator. It
// reads the endpoint, decodes each frame (one that does not decode is an
// error) and keys it by stage; the aggregator asked Next for a stage and
// applies its own acceptance rules to each letter, holding those of later
// stages with Hold for Next to return when their stage comes.
//
// Behind a transport.MeteredEndpoint a message counts as received when
// the node collects its stage: at once if it belongs to the stage being
// collected or an earlier one, else when Next is first asked for its
// stage. A node that stops for good with letters read ahead of its last
// round therefore meters the same on every run.
type Inbox struct {
	recv        func(context.Context) (transport.Message, error)
	count       func(size int) // nil when unmetered
	cur         Letter         // the letter Next returned last
	held, ahead []Letter       // held for a later stage; read ahead, not yet counted
}

// NewInbox reads ep.
func NewInbox(ep transport.Endpoint) *Inbox {
	if m, ok := ep.(*transport.MeteredEndpoint); ok {
		return &Inbox{recv: m.RecvUncounted, count: m.CountRecv}
	}
	return &Inbox{recv: ep.Recv}
}

// Next returns the next letter for stage (round, stage): a held one
// first, else the next off the wire, of whatever stage. Held letters of
// earlier stages are dropped. The letter is valid until the next call.
func (in *Inbox) Next(ctx context.Context, round, stage int) (*Letter, error) {
	ahead := in.ahead[:0]
	for i := range in.ahead {
		if l := &in.ahead[i]; l.After(round, stage) {
			ahead = append(ahead, *l)
		} else {
			in.count(l.size)
		}
	}
	in.ahead = ahead
	for i := 0; i < len(in.held); i++ {
		if in.held[i].After(round, stage) {
			continue
		}
		in.cur = in.held[i]
		in.held = append(in.held[:i], in.held[i+1:]...)
		if in.cur.Round == round && in.cur.Stage == stage {
			return &in.cur, nil
		}
		i--
	}
	msg, err := in.recv(ctx)
	if err != nil {
		return nil, err
	}
	l := &in.cur
	l.From, l.size = msg.From, len(msg.Payload)
	l.Env, err = protocol.Decode(msg.Payload)
	var ok bool
	if l.Round, l.Stage, ok = l.Env.Stage(); !ok {
		l.Round = -1 // a kind outside the rounds, or a frame that does not decode
	}
	in.readAhead(l, round, stage)
	return l, err
}

// Hold keeps a letter of a later stage for Next.
func (in *Inbox) Hold(l *Letter) { in.held = append(in.held, *l) }

// readAhead counts l now, or when its stage is collected if it is read
// ahead of the stage (round, stage).
func (in *Inbox) readAhead(l *Letter, round, stage int) {
	if in.count == nil {
		return
	}
	if l.After(round, stage) {
		in.ahead = append(in.ahead, *l)
	} else {
		in.count(l.size)
	}
}
