package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
)

// batchMagic marks a coalesced batch payload. It differs from the
// protocol codec's magic (0xFB), so a Coalescer's Recv can split batches
// while passing single messages through untouched — and a plain endpoint
// on the far side of a non-coalescing peer never sees the batch form at
// all unless both sides agreed to wrap.
const batchMagic = 0xFA

// maxBatchParts bounds how many sub-messages one batch may claim,
// protecting the splitter from a hostile length prefix.
const maxBatchParts = 1 << 20

// CoalesceStats counts the work a Coalescer saved: how many logical
// messages travelled inside how many wire frames.
type CoalesceStats struct {
	// MessagesSent counts logical messages accepted by Send.
	MessagesSent int64
	// FramesSent counts wire frames handed to the inner endpoint
	// (singles pass through unwrapped; batches count once).
	FramesSent int64
	// BatchesSent counts frames that carried more than one message.
	BatchesSent int64
	// BytesSent counts wire bytes handed to the inner endpoint.
	BytesSent int64
}

// Coalescer wraps an Endpoint with per-peer message buffering: Send
// queues, Flush ships each peer's queue as one batch frame. The gossip
// aggregation mode sends a push-sum share and an extrema flood to the
// same neighbor every tick; coalescing folds those into a single wire
// frame, halving the frame count without changing delivery semantics.
// Recv transparently splits batches back into individual messages, in
// their original send order, so users of the wrapped endpoint never see
// the batch encoding.
//
// Send and Flush are safe for concurrent use, but messages buffered by
// concurrent Sends to the same peer land in the batch in lock order.
type Coalescer struct {
	inner Endpoint

	mu      sync.Mutex
	pending map[int][][]byte
	stats   CoalesceStats

	recvMu sync.Mutex
	queue  []Message
}

var _ Endpoint = (*Coalescer)(nil)

// NewCoalescer wraps inner with per-peer send coalescing.
func NewCoalescer(inner Endpoint) *Coalescer {
	return &Coalescer{inner: inner, pending: make(map[int][][]byte)}
}

// Unwrap returns the wrapped endpoint.
func (c *Coalescer) Unwrap() Endpoint { return c.inner }

// ID implements Endpoint.
func (c *Coalescer) ID() int { return c.inner.ID() }

// Peers implements Endpoint.
func (c *Coalescer) Peers() int { return c.inner.Peers() }

// Send buffers payload for peer `to` until the next Flush. It never
// touches the network, so it cannot fail on transport errors; those
// surface from Flush.
func (c *Coalescer) Send(_ context.Context, to int, payload []byte) error {
	if to < 0 || to >= c.inner.Peers() {
		return fmt.Errorf("%w: node %d of %d", ErrUnknownPeer, to, c.inner.Peers())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending[to] = append(c.pending[to], append([]byte(nil), payload...))
	c.stats.MessagesSent++
	return nil
}

// Flush ships every buffered queue: a single buffered message passes
// through unwrapped, two or more become one batch frame. Queues that
// fail to send stay cleared — the protocol treats a lost frame like any
// other drop (rounds re-aggregate; nothing replays stale state) — and
// the first error is returned after all peers were attempted.
func (c *Coalescer) Flush(ctx context.Context) error {
	c.mu.Lock()
	pending := c.pending
	c.pending = make(map[int][][]byte)
	c.mu.Unlock()

	var firstErr error
	for to := 0; to < c.inner.Peers(); to++ {
		parts, ok := pending[to]
		if !ok {
			continue
		}
		var frame []byte
		if len(parts) == 1 {
			frame = parts[0]
		} else {
			frame = encodeBatch(parts)
		}
		if err := c.inner.Send(ctx, to, frame); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.mu.Lock()
		c.stats.FramesSent++
		c.stats.BytesSent += int64(len(frame))
		if len(parts) > 1 {
			c.stats.BatchesSent++
		}
		c.mu.Unlock()
	}
	return firstErr
}

// Recv implements Endpoint, splitting batch frames back into the
// individual messages they carry.
func (c *Coalescer) Recv(ctx context.Context) (Message, error) {
	for {
		c.recvMu.Lock()
		if len(c.queue) > 0 {
			msg := c.queue[0]
			c.queue = c.queue[1:]
			c.recvMu.Unlock()
			return msg, nil
		}
		c.recvMu.Unlock()
		// The blocking receive happens with no lock held: a peer that
		// never answers must not wedge concurrent Recv callers draining
		// already-split batch parts.
		msg, err := c.inner.Recv(ctx)
		if err != nil {
			return Message{}, err
		}
		if len(msg.Payload) == 0 || msg.Payload[0] != batchMagic {
			return msg, nil
		}
		parts, err := decodeBatch(msg.Payload)
		if err != nil {
			// A corrupt batch is dropped whole, like a corrupt frame on
			// any other transport; the protocol's rounds are idempotent.
			continue
		}
		c.recvMu.Lock()
		for _, p := range parts {
			c.queue = append(c.queue, Message{From: msg.From, Payload: p})
		}
		c.recvMu.Unlock()
	}
}

// Close flushes nothing (buffered messages are dropped, matching a
// connection teardown) and closes the inner endpoint.
func (c *Coalescer) Close() error { return c.inner.Close() }

// Stats returns a snapshot of the coalescing counters.
func (c *Coalescer) Stats() CoalesceStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// encodeBatch packs parts as
// [batchMagic][uvarint count]([uvarint len][bytes])*.
func encodeBatch(parts [][]byte) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, p := range parts {
		size += binary.MaxVarintLen64 + len(p)
	}
	frame := make([]byte, 0, size)
	frame = append(frame, batchMagic)
	frame = binary.AppendUvarint(frame, uint64(len(parts)))
	for _, p := range parts {
		frame = binary.AppendUvarint(frame, uint64(len(p)))
		frame = append(frame, p...)
	}
	return frame
}

// decodeBatch unpacks an encodeBatch frame; any inconsistency (bad
// varint, count or length exceeding the remaining bytes, trailing
// garbage) fails the whole frame.
func decodeBatch(frame []byte) ([][]byte, error) {
	buf := frame[1:] // caller checked batchMagic
	count, n := binary.Uvarint(buf)
	if n <= 0 || count == 0 || count > maxBatchParts {
		return nil, fmt.Errorf("transport: batch frame with bad part count")
	}
	buf = buf[n:]
	parts := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		size, n := binary.Uvarint(buf)
		if n <= 0 || size > uint64(len(buf)-n) {
			return nil, fmt.Errorf("transport: batch frame truncated at part %d", i)
		}
		buf = buf[n:]
		parts = append(parts, append([]byte(nil), buf[:size]...))
		buf = buf[size:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("transport: batch frame has %d trailing bytes", len(buf))
	}
	return parts, nil
}
