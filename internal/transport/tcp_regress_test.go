package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// tcpPair builds two connected endpoints on ephemeral ports and returns
// them with their address books exchanged.
func tcpPair(t testing.TB, opts ...TCPOption) (*TCPEndpoint, *TCPEndpoint) {
	t.Helper()
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	a, err := ListenTCP(0, addrs, opts...)
	if err != nil {
		t.Fatalf("ListenTCP(0): %v", err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := ListenTCP(1, addrs, opts...)
	if err != nil {
		t.Fatalf("ListenTCP(1): %v", err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.SetPeerAddr(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeerAddr(0, a.Addr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// Regression: Send with a deadline context used to leave the deadline on
// the cached connection, so a later Send with a deadline-free context
// failed spuriously once that instant passed.
func TestTCPSendClearsStaleWriteDeadline(t *testing.T) {
	a, b := tcpPair(t)

	shortCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := a.Send(shortCtx, 1, []byte("first")); err != nil {
		t.Fatalf("Send with deadline: %v", err)
	}
	cancel()
	// Let the first context's deadline pass; the stale write deadline (if
	// any) is now in the past.
	time.Sleep(80 * time.Millisecond)

	if err := a.Send(context.Background(), 1, []byte("second")); err != nil {
		t.Fatalf("Send without deadline inherited a stale one: %v", err)
	}

	recvCtx, cancelRecv := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelRecv()
	for _, want := range []string{"first", "second"} {
		msg, err := b.Recv(recvCtx)
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if string(msg.Payload) != want {
			t.Errorf("payload = %q, want %q", msg.Payload, want)
		}
	}
}

// Regression: concurrent Sends to one peer used to hit the net.Conn with
// unserialized writes, letting frames interleave and corrupt the
// stream. Large payloads force multi-chunk writes; run with -race.
func TestTCPConcurrentSendsDeliverWholeFrames(t *testing.T) {
	a, b := tcpPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const senders = 8
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 256*1024)
	}
	var wg sync.WaitGroup
	errs := make(chan error, senders)
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := a.Send(ctx, 1, payload(i)); err != nil {
				errs <- fmt.Errorf("sender %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	seen := make(map[byte]bool)
	for n := 0; n < senders; n++ {
		msg, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv %d: %v", n, err)
		}
		if len(msg.Payload) != 256*1024 {
			t.Fatalf("message %d length = %d, frame corrupted", n, len(msg.Payload))
		}
		c := msg.Payload[0]
		for _, got := range msg.Payload {
			if got != c {
				t.Fatalf("message %d mixes bytes %q and %q: frames interleaved", n, c, got)
			}
		}
		if seen[c] {
			t.Fatalf("payload %q delivered twice", c)
		}
		seen[c] = true
	}
}

// refusedAddr returns a loopback address that refuses connections.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// Regression: the dial-retry loop used a flat time.Sleep, so context
// cancellation mid-sleep was ignored for up to the retry interval.
func TestTCPDialRetryWakesOnCancel(t *testing.T) {
	old := dialRetryInterval
	dialRetryInterval = 2 * time.Second
	defer func() { dialRetryInterval = old }()

	a, err := ListenTCP(0, []string{"127.0.0.1:0", refusedAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = a.Send(ctx, 1, []byte("x"))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Send error = %v, want context.Canceled", err)
	}
	if elapsed > time.Second {
		t.Errorf("Send took %v after cancel; retry sleep ignored the context", elapsed)
	}
}

// Same bug, shutdown flavor: Close during the retry sleep must unblock
// the dialing Send promptly with ErrClosed.
func TestTCPDialRetryWakesOnClose(t *testing.T) {
	old := dialRetryInterval
	dialRetryInterval = 2 * time.Second
	defer func() { dialRetryInterval = old }()

	a, err := ListenTCP(0, []string{"127.0.0.1:0", refusedAddr(t)})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		a.Close()
	}()
	start := time.Now()
	err = a.Send(context.Background(), 1, []byte("x"))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Send error = %v, want ErrClosed", err)
	}
	if elapsed > time.Second {
		t.Errorf("Send took %v after Close; retry sleep ignored shutdown", elapsed)
	}
}

// Regression: readLoop used to swallow scanner.Err(), so a peer whose
// frame exceeded the buffer limit disappeared with no trace.
func TestTCPReadErrorHookFiresOnOversizedFrame(t *testing.T) {
	hookErrs := make(chan error, 1)
	b, err := ListenTCP(1, []string{"127.0.0.1:0", "127.0.0.1:0"},
		WithReadErrorHook(func(remote string, err error) {
			select {
			case hookErrs <- fmt.Errorf("%s: %w", remote, err):
			default:
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame header claiming one byte over the 16 MiB limit. The reader
	// rejects the length before reading the body, so none is sent.
	header := binary.AppendUvarint([]byte{tcpFrameMagic}, maxFrameBytes+1)
	if _, err := conn.Write(header); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-hookErrs:
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("hook error = %v, want bufio.ErrTooLong", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read error hook never fired")
	}
}

// Shutdown must not report errors for connections it closed itself.
func TestTCPReadErrorHookSilentOnClose(t *testing.T) {
	var mu sync.Mutex
	var fired []string
	hook := func(remote string, err error) {
		mu.Lock()
		fired = append(fired, fmt.Sprintf("%s: %v", remote, err))
		mu.Unlock()
	}
	a, b := tcpPair(t, WithReadErrorHook(hook))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Send(ctx, 1, []byte("warm up")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
	mu.Lock()
	defer mu.Unlock()
	for _, f := range fired {
		if !strings.Contains(f, "use of closed") {
			t.Errorf("hook fired during shutdown: %s", f)
		}
	}
	if len(fired) != 0 {
		t.Errorf("hook fired %d times during clean shutdown: %v", len(fired), fired)
	}
}

// Pins the drain semantics of Recv after Close: messages already queued
// in the inbox remain retrievable; only once the inbox is empty does
// Recv report ErrClosed.
func TestTCPRecvDrainsInboxAfterClose(t *testing.T) {
	a, b := tcpPair(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	const queued = 3
	for i := 0; i < queued; i++ {
		if err := a.Send(ctx, 1, []byte{byte(i)}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	// Wait for the reader goroutine to queue all three, then close.
	deadline := time.Now().Add(5 * time.Second)
	for len(b.inbox) < queued {
		if time.Now().After(deadline) {
			t.Fatalf("inbox holds %d of %d messages", len(b.inbox), queued)
		}
		time.Sleep(time.Millisecond)
	}
	b.Close()

	for i := 0; i < queued; i++ {
		msg, err := b.Recv(ctx)
		if err != nil {
			t.Fatalf("Recv %d after Close: %v (queued message dropped)", i, err)
		}
		if len(msg.Payload) != 1 || msg.Payload[0] != byte(i) {
			t.Errorf("Recv %d = %v", i, msg.Payload)
		}
	}
	if _, err := b.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv on drained closed endpoint = %v, want ErrClosed", err)
	}
}
