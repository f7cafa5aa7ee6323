package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestMemoryNetworkDelivers(t *testing.T) {
	net, err := NewMemoryNetwork(3)
	if err != nil {
		t.Fatalf("NewMemoryNetwork: %v", err)
	}
	defer net.Close()

	a, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := a.Send(ctx, 1, []byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg, err := b.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if msg.From != 0 || string(msg.Payload) != "hello" {
		t.Errorf("got %+v, want from=0 payload=hello", msg)
	}
}

func TestMemoryNetworkPayloadIsolated(t *testing.T) {
	// Mutating the sent buffer after Send must not affect delivery.
	net, err := NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	buf := []byte("abc")
	if err := a.Send(context.Background(), 1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	msg, err := b.Recv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Payload) != "abc" {
		t.Errorf("payload = %q, want abc", msg.Payload)
	}
}

func TestMemoryNetworkUnknownPeer(t *testing.T) {
	net, err := NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, _ := net.Endpoint(0)
	if err := a.Send(context.Background(), 7, nil); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("error = %v, want ErrUnknownPeer", err)
	}
	if _, err := net.Endpoint(9); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Endpoint error = %v, want ErrUnknownPeer", err)
	}
}

func TestMemoryNetworkRecvContextCancel(t *testing.T) {
	net, err := NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, _ := net.Endpoint(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want DeadlineExceeded", err)
	}
}

func TestMemoryNetworkClose(t *testing.T) {
	net, err := NewMemoryNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := net.Endpoint(0)
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), 1, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close: error = %v, want ErrClosed", err)
	}
	if _, err := a.Recv(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Recv after close: error = %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := net.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestBroadcastReachesAllPeers(t *testing.T) {
	net, err := NewMemoryNetwork(4)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	sender, _ := net.Endpoint(2)
	if err := Broadcast(context.Background(), sender, []byte("ping")); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for i := 0; i < 4; i++ {
		if i == 2 {
			continue
		}
		ep, _ := net.Endpoint(i)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		msg, err := ep.Recv(ctx)
		cancel()
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		if msg.From != 2 || string(msg.Payload) != "ping" {
			t.Errorf("peer %d got %+v", i, msg)
		}
	}
}

func TestTCPEndpointRoundTrip(t *testing.T) {
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	a, err := ListenTCP(0, addrs)
	if err != nil {
		t.Fatalf("ListenTCP(0): %v", err)
	}
	defer a.Close()
	b, err := ListenTCP(1, addrs)
	if err != nil {
		t.Fatalf("ListenTCP(1): %v", err)
	}
	defer b.Close()
	// Exchange the ephemeral addresses.
	if err := a.SetPeerAddr(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeerAddr(0, a.Addr()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Send(ctx, 1, []byte("over tcp")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg, err := b.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if msg.From != 0 || string(msg.Payload) != "over tcp" {
		t.Errorf("got %+v", msg)
	}
	// Reply over the reverse direction.
	if err := b.Send(ctx, 0, []byte("ack")); err != nil {
		t.Fatalf("reply Send: %v", err)
	}
	reply, err := a.Recv(ctx)
	if err != nil {
		t.Fatalf("reply Recv: %v", err)
	}
	if reply.From != 1 || string(reply.Payload) != "ack" {
		t.Errorf("reply = %+v", reply)
	}
}

func TestTCPEndpointManyMessages(t *testing.T) {
	a, err := ListenTCP(0, []string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(1, []string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.SetPeerAddr(1, b.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeerAddr(0, a.Addr()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const count = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < count; i++ {
			if err := a.Send(ctx, 1, []byte{byte(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	received := 0
	for received < count {
		if _, err := b.Recv(ctx); err != nil {
			t.Fatalf("recv after %d: %v", received, err)
		}
		received++
	}
	wg.Wait()
}

func TestTCPEndpointCloseUnblocks(t *testing.T) {
	a, err := ListenTCP(0, []string{"127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv(context.Background())
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Recv error = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
	if err := a.Send(context.Background(), 0, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
}

func TestTCPEndpointValidation(t *testing.T) {
	if _, err := ListenTCP(5, []string{"127.0.0.1:0"}); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("bad id: error = %v, want ErrUnknownPeer", err)
	}
	a, err := ListenTCP(0, []string{"127.0.0.1:0", "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(context.Background(), 9, nil); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("bad peer: error = %v, want ErrUnknownPeer", err)
	}
}

func TestNewMemoryNetworkValidation(t *testing.T) {
	if _, err := NewMemoryNetwork(0); err == nil {
		t.Error("zero-node network accepted")
	}
}

func TestTCPSetPeerAddrValidation(t *testing.T) {
	a, err := ListenTCP(0, []string{"127.0.0.1:0", "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.SetPeerAddr(9, "127.0.0.1:1"); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("error = %v, want ErrUnknownPeer", err)
	}
	if a.ID() != 0 || a.Peers() != 2 {
		t.Errorf("identity accessors wrong: %d/%d", a.ID(), a.Peers())
	}
}

func TestTCPDialFailsAfterRetryWindowWithCanceledContext(t *testing.T) {
	// Dialing a dead peer with an already-expired context must fail
	// promptly with the context error, not burn the whole retry window.
	a, err := ListenTCP(0, []string{"127.0.0.1:0", "127.0.0.1:1"}) // port 1: nothing listens
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = a.Send(ctx, 1, []byte("x"))
	if err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("send took %v despite 100ms context", elapsed)
	}
}
