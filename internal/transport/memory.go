package transport

import (
	"context"
	"fmt"
	"sync"
)

// memoryBufferSize bounds each endpoint's inbox. The allocation protocol
// sends at most one message per peer per round, so a full round fits with
// room for one round of pipelining; senders block (providing natural
// back-pressure) if a receiver falls further behind.
const memoryBufferSize = 256

// MemoryNetwork is an in-process cluster of endpoints connected by
// channels. It is deterministic apart from goroutine scheduling of the
// users themselves; failure tests inject faults by wrapping its endpoints
// in a FaultEndpoint.
type MemoryNetwork struct {
	mu        sync.Mutex
	endpoints []*memoryEndpoint
	bufSize   int
	closed    bool
}

// MemoryOption configures a MemoryNetwork.
type MemoryOption func(*MemoryNetwork)

// WithBufferSize overrides the per-endpoint inbox capacity. The default
// suits the one-message-per-peer-per-round broadcast protocol; a
// thousand-node broadcast reference run needs room for a full fan-in
// (N−1 reports land in the coordinator's inbox at once) or senders
// deadlock against each other's blocked Sends.
func WithBufferSize(n int) MemoryOption {
	return func(net *MemoryNetwork) {
		if n > 0 {
			net.bufSize = n
		}
	}
}

// NewMemoryNetwork creates a cluster of n connected endpoints.
func NewMemoryNetwork(n int, opts ...MemoryOption) (*MemoryNetwork, error) {
	if n < 1 {
		return nil, fmt.Errorf("transport: cluster needs at least one node, got %d", n)
	}
	net := &MemoryNetwork{bufSize: memoryBufferSize}
	for _, opt := range opts {
		opt(net)
	}
	net.endpoints = make([]*memoryEndpoint, n)
	for i := 0; i < n; i++ {
		net.endpoints[i] = &memoryEndpoint{
			id:    i,
			net:   net,
			inbox: make(chan Message, net.bufSize),
			done:  make(chan struct{}),
		}
	}
	return net, nil
}

// Endpoint returns node id's endpoint.
func (n *MemoryNetwork) Endpoint(id int) (Endpoint, error) {
	if id < 0 || id >= len(n.endpoints) {
		return nil, fmt.Errorf("%w: node %d of %d", ErrUnknownPeer, id, len(n.endpoints))
	}
	return n.endpoints[id], nil
}

// Close shuts down every endpoint.
func (n *MemoryNetwork) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	for _, ep := range n.endpoints {
		ep.close()
	}
	return nil
}

type memoryEndpoint struct {
	id    int
	net   *MemoryNetwork
	inbox chan Message

	closeOnce sync.Once
	done      chan struct{}
}

var _ Endpoint = (*memoryEndpoint)(nil)

func (e *memoryEndpoint) ID() int    { return e.id }
func (e *memoryEndpoint) Peers() int { return len(e.net.endpoints) }

func (e *memoryEndpoint) Send(ctx context.Context, to int, payload []byte) error {
	if to < 0 || to >= len(e.net.endpoints) {
		return fmt.Errorf("%w: node %d of %d", ErrUnknownPeer, to, len(e.net.endpoints))
	}
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	dst := e.net.endpoints[to]
	msg := Message{From: e.id, Payload: append([]byte(nil), payload...)}
	select {
	case dst.inbox <- msg:
		return nil
	case <-dst.done:
		return fmt.Errorf("transport: peer %d closed: %w", to, ErrClosed)
	case <-ctx.Done():
		return fmt.Errorf("transport: sending %d -> %d: %w", e.id, to, ctx.Err())
	}
}

func (e *memoryEndpoint) Recv(ctx context.Context) (Message, error) {
	select {
	case msg := <-e.inbox:
		return msg, nil
	case <-e.done:
		// Drain any residual buffered message before reporting closed.
		select {
		case msg := <-e.inbox:
			return msg, nil
		default:
			return Message{}, ErrClosed
		}
	case <-ctx.Done():
		return Message{}, fmt.Errorf("transport: receiving at %d: %w", e.id, ctx.Err())
	}
}

func (e *memoryEndpoint) Close() error {
	e.close()
	return nil
}

func (e *memoryEndpoint) close() {
	e.closeOnce.Do(func() { close(e.done) })
}
