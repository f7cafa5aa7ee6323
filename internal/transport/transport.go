// Package transport provides the message-passing substrate for the
// decentralized allocation protocol: a Transport moves opaque payloads
// between the numbered nodes of a cluster. Two implementations are
// provided: an in-memory channel network (with deterministic failure
// injection for tests) and a TCP mesh for running the protocol across
// real processes, speaking length-prefixed binary frames. Every Send is
// one message in one frame; nothing batches messages.
package transport

import (
	"context"
	"errors"
)

// Sentinel errors.
var (
	// ErrClosed is returned by operations on a closed endpoint.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrUnknownPeer is returned when sending to a node id outside the
	// cluster.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrDropped is returned by failure-injecting transports when a
	// message was deliberately lost.
	ErrDropped = errors.New("transport: message dropped")
	// ErrCrashed is returned by every operation on an endpoint killed by
	// an injected crash fault until it is revived. Supervisors classify
	// it as a restartable failure (unlike protocol violations or
	// timeouts, which indicate live-system problems a restart cannot
	// fix).
	ErrCrashed = errors.New("transport: endpoint crashed")
)

// Message is one delivered payload.
type Message struct {
	// From is the sender's node id.
	From int
	// Payload is the opaque message body.
	Payload []byte
}

// Endpoint is one node's connection to the cluster.
type Endpoint interface {
	// ID returns this endpoint's node id.
	ID() int
	// Peers returns the number of nodes in the cluster (including this
	// one).
	Peers() int
	// Send delivers payload to node `to`. Implementations may block
	// until the message is handed to the network; ctx bounds that wait.
	Send(ctx context.Context, to int, payload []byte) error
	// Recv returns the next delivered message, blocking until one
	// arrives, the context is done, or the endpoint closes.
	Recv(ctx context.Context) (Message, error)
	// Close releases the endpoint. Subsequent operations return
	// ErrClosed.
	Close() error
}

// Broadcast sends payload to every peer except the sender itself.
func Broadcast(ctx context.Context, ep Endpoint, payload []byte) error {
	for to := 0; to < ep.Peers(); to++ {
		if to == ep.ID() {
			continue
		}
		if err := ep.Send(ctx, to, payload); err != nil {
			return err
		}
	}
	return nil
}
