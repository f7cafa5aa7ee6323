package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// tcpInboxSize bounds the TCP endpoint's delivery queue; the reader
// goroutines block (exerting TCP back-pressure) when it is full.
const tcpInboxSize = 1024

// defaultMaxFrameBytes bounds a single frame body on the wire.
const defaultMaxFrameBytes = 16 * 1024 * 1024

// tcpFrameMagic opens every wire frame.
const tcpFrameMagic = 0xFD

// tcpConn pairs a cached outgoing connection with a write mutex so that
// concurrent Sends to the same peer emit whole frames: net.Conn.Write is
// goroutine-safe but gives no atomicity across calls, and an interleaved
// frame corrupts the stream for every later message.
type tcpConn struct {
	mu sync.Mutex
	c  net.Conn
}

// TCPOption configures a TCPEndpoint at construction.
type TCPOption func(*TCPEndpoint)

// WithReadErrorHook installs a callback invoked when an inbound
// connection's read loop terminates with an error (for example a peer
// frame exceeding the frame-size limit). Without it such connections are
// dropped silently and the failure surfaces only as a later round
// timeout. The hook may be called from multiple reader goroutines
// concurrently; remote is the peer's network address.
func WithReadErrorHook(fn func(remote string, err error)) TCPOption {
	return func(e *TCPEndpoint) { e.readErrHook = fn }
}

// WithMaxFrameBytes overrides the per-frame size limit (default 16 MiB).
func WithMaxFrameBytes(n int) TCPOption {
	return func(e *TCPEndpoint) { e.maxFrameBytes = n }
}

// TCPEndpoint connects one node of the allocation protocol to its peers
// over TCP. Every message travels as one length-prefixed frame,
// [0xFD][uvarint len][uvarint from][payload], where len counts the
// sender id and the payload. Outgoing connections are dialed lazily and
// cached; every accepted connection feeds a shared inbox. A malformed
// frame cannot be skipped, because its length prefix cannot be trusted:
// the reader drops that connection and reports the error to the
// WithReadErrorHook callback, while other connections keep delivering.
type TCPEndpoint struct {
	id    int
	addrs []string
	ln    net.Listener

	maxFrameBytes int
	readErrHook   func(remote string, err error)

	mu    sync.Mutex
	conns map[int]*tcpConn
	wg    sync.WaitGroup

	inbox chan Message

	closeOnce sync.Once
	done      chan struct{}
}

var _ Endpoint = (*TCPEndpoint)(nil)

// ListenTCP starts node id's endpoint listening on addrs[id]. addrs maps
// every node id to its listen address; a port of ":0" style is allowed, in
// which case Addr reports the bound address (useful in tests; production
// deployments list concrete addresses).
func ListenTCP(id int, addrs []string, opts ...TCPOption) (*TCPEndpoint, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("%w: node %d of %d", ErrUnknownPeer, id, len(addrs))
	}
	ep := &TCPEndpoint{
		id:            id,
		addrs:         append([]string(nil), addrs...),
		maxFrameBytes: defaultMaxFrameBytes,
		conns:         make(map[int]*tcpConn),
		inbox:         make(chan Message, tcpInboxSize),
		done:          make(chan struct{}),
	}
	for _, opt := range opts {
		opt(ep)
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %q: %w", addrs[id], err)
	}
	ep.ln = ln
	ep.addrs[id] = ln.Addr().String()
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Addr returns the endpoint's bound listen address.
func (e *TCPEndpoint) Addr() string { return e.addrs[e.id] }

// SetPeerAddr installs a peer's concrete address after construction. This
// supports bootstrap flows where every node listens on an ephemeral port
// first and the address book is assembled afterwards (tests, local
// clusters). It must be called before the first Send to that peer.
func (e *TCPEndpoint) SetPeerAddr(id int, addr string) error {
	if id < 0 || id >= len(e.addrs) {
		return fmt.Errorf("%w: node %d of %d", ErrUnknownPeer, id, len(e.addrs))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addrs[id] = addr
	return nil
}

// ListenLoopback binds n endpoints on ephemeral loopback ports and
// installs every peer's address on every endpoint: a whole TCP cluster
// inside one process, for tests and single-host runs. The caller closes
// the endpoints (CloseAll); on error none is left open.
func ListenLoopback(n int) ([]Endpoint, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	tcps := make([]*TCPEndpoint, n)
	eps := make([]Endpoint, 0, n)
	for i := range tcps {
		ep, err := ListenTCP(i, addrs)
		if err != nil {
			return nil, errors.Join(err, CloseAll(eps))
		}
		tcps[i] = ep
		eps = append(eps, ep)
	}
	for _, ep := range tcps {
		ep.mu.Lock()
		for j, peer := range tcps {
			ep.addrs[j] = peer.Addr()
		}
		ep.mu.Unlock()
	}
	return eps, nil
}

// CloseAll closes every endpoint and joins their errors.
func CloseAll(eps []Endpoint) error {
	var errs []error
	for _, ep := range eps {
		errs = append(errs, ep.Close())
	}
	return errors.Join(errs...)
}

// ID implements Endpoint.
func (e *TCPEndpoint) ID() int { return e.id }

// Peers implements Endpoint.
func (e *TCPEndpoint) Peers() int { return len(e.addrs) }

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			// Listener closed (normal shutdown) or fatal error;
			// either way the endpoint stops accepting.
			return
		}
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close() //fap:ignore errdrop best-effort close of a read-side socket
	// Close the connection when the endpoint shuts down so the reader
	// unblocks.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-e.done:
			conn.Close() //fap:ignore errdrop best-effort close that unblocks the reader below
		case <-stop:
		}
	}()

	r := bufio.NewReader(conn)
	var readErr error
	for {
		from, payload, err := readFrame(r, e.maxFrameBytes, len(e.addrs))
		if err != nil {
			readErr = err
			break
		}
		select {
		case e.inbox <- Message{From: from, Payload: payload}:
		case <-e.done:
			return
		}
	}
	// A read error (malformed or oversized frame, mid-stream failure)
	// means this peer's messages silently stop arriving; surface it so
	// the operator sees more than an eventual round timeout. EOF and
	// shutdown close the connection deliberately — not errors worth
	// reporting.
	if readErr != nil && !errors.Is(readErr, io.EOF) && e.readErrHook != nil {
		select {
		case <-e.done:
		default:
			e.readErrHook(conn.RemoteAddr().String(), readErr)
		}
	}
}

// readFrame consumes one [magic][uvarint len][uvarint from][payload]
// frame. The length is checked against limit before the body is
// allocated, and the sender id against peers. io.EOF at a frame boundary
// is a clean close; anything else wrong with the frame is an error.
func readFrame(r *bufio.Reader, limit, peers int) (int, []byte, error) {
	magic, err := r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	if magic != tcpFrameMagic {
		return 0, nil, fmt.Errorf("transport: frame starts with %#x, not %#x", magic, tcpFrameMagic)
	}
	size, err := binary.ReadUvarint(r)
	if err == nil && size > uint64(limit) {
		return 0, nil, fmt.Errorf("transport: frame of %d bytes exceeds limit %d: %w", size, limit, bufio.ErrTooLong)
	}
	var body []byte
	if err == nil {
		body = make([]byte, size)
		_, err = io.ReadFull(r, body)
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF // the magic was read, so the frame is cut short
	}
	if err != nil {
		return 0, nil, fmt.Errorf("transport: reading frame: %w", err)
	}
	from, n := binary.Uvarint(body)
	if n <= 0 || from >= uint64(peers) {
		return 0, nil, fmt.Errorf("transport: frame with bad sender id")
	}
	return int(from), body[n:], nil
}

// Send implements Endpoint. The first send to a peer dials it; the
// connection is cached for the endpoint's lifetime. A failed write tears
// down the cached connection so the next attempt re-dials.
func (e *TCPEndpoint) Send(ctx context.Context, to int, payload []byte) error {
	if to < 0 || to >= len(e.addrs) {
		return fmt.Errorf("%w: node %d of %d", ErrUnknownPeer, to, len(e.addrs))
	}
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	tc, err := e.conn(ctx, to)
	if err != nil {
		return err
	}
	frame := encodeFrame(e.id, payload)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	// Always (re)set the write deadline: a context without one must clear
	// any deadline a previous Send left on the connection, or this write
	// fails spuriously once that stale instant passes.
	deadline, _ := ctx.Deadline()
	if err := tc.c.SetWriteDeadline(deadline); err != nil {
		return fmt.Errorf("transport: setting write deadline: %w", err)
	}
	if _, err := tc.c.Write(frame); err != nil {
		e.dropConn(to, tc)
		return fmt.Errorf("transport: writing to node %d: %w", to, err)
	}
	return nil
}

// dialRetryWindow bounds how long Send keeps retrying a refused dial.
// Peers of a cluster start asynchronously, so the first sender routinely
// beats the last listener; retrying briefly makes bootstrap order-free.
const dialRetryWindow = 10 * time.Second

// dialRetryInterval is the pause between dial attempts. A variable so
// tests can shrink it.
var dialRetryInterval = 50 * time.Millisecond

func (e *TCPEndpoint) conn(ctx context.Context, to int) (*tcpConn, error) {
	e.mu.Lock()
	if tc, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return tc, nil
	}
	addr := e.addrs[to]
	e.mu.Unlock()

	var d net.Dialer
	var c net.Conn
	var err error
	deadline := time.Now().Add(dialRetryWindow)
	for attempt := 0; ; attempt++ {
		c, err = d.DialContext(ctx, "tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("transport: dialing node %d at %q: %w", to, addr, err)
		}
		// Pause before retrying, but wake immediately on context
		// cancellation or endpoint shutdown — a flat sleep here would
		// hold Close and cancelled callers hostage for the interval.
		timer := time.NewTimer(dialRetryInterval)
		select {
		case <-e.done:
			timer.Stop()
			return nil, ErrClosed
		case <-ctx.Done():
			timer.Stop()
			return nil, fmt.Errorf("transport: dialing node %d at %q: %w", to, addr, ctx.Err())
		case <-timer.C:
		}
	}
	e.mu.Lock()
	if existing, ok := e.conns[to]; ok {
		// Lost the race; keep the first connection.
		e.mu.Unlock()
		c.Close() //fap:ignore errdrop closing the duplicate connection that lost the dial race
		return existing, nil
	}
	tc := &tcpConn{c: c}
	e.conns[to] = tc
	e.mu.Unlock()
	return tc, nil
}

// encodeFrame wraps payload in the wire frame of a message from node
// from: [magic][uvarint len][uvarint from][payload].
func encodeFrame(from int, payload []byte) []byte {
	var id [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(id[:], uint64(from))
	frame := make([]byte, 0, 1+binary.MaxVarintLen64+n+len(payload))
	frame = append(frame, tcpFrameMagic)
	frame = binary.AppendUvarint(frame, uint64(n+len(payload)))
	frame = append(frame, id[:n]...)
	return append(frame, payload...)
}

func (e *TCPEndpoint) dropConn(to int, tc *tcpConn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.conns[to] == tc {
		delete(e.conns, to)
	}
	tc.c.Close() //fap:ignore errdrop tearing down a connection that already failed
}

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv(ctx context.Context) (Message, error) {
	select {
	case msg := <-e.inbox:
		return msg, nil
	case <-e.done:
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

// Close implements Endpoint: it stops the listener, closes every
// connection, and waits for the reader goroutines to exit.
func (e *TCPEndpoint) Close() error {
	var errOut error
	e.closeOnce.Do(func() {
		close(e.done)
		if err := e.ln.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errOut = err
		}
		e.mu.Lock()
		for to, tc := range e.conns {
			tc.c.Close() //fap:ignore errdrop best-effort close on the shutdown path
			delete(e.conns, to)
		}
		e.mu.Unlock()
		e.wg.Wait()
	})
	return errOut
}
