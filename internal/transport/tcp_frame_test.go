package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// TestTCPSkipsMalformedFrames pins the malformed-stream behaviour. A
// length-prefixed stream cannot resynchronise after garbage, so the
// reader drops that one connection and reports why through the
// read-error hook. Frames read before the garbage are still delivered,
// and a well-formed peer on its own connection keeps delivering.
func TestTCPSkipsMalformedFrames(t *testing.T) {
	hookErrs := make(chan error, 4)
	addrs := []string{"127.0.0.1:0", "127.0.0.1:0"}
	a, err := ListenTCP(0, addrs, WithReadErrorHook(func(_ string, err error) {
		select {
		case hookErrs <- err:
		default:
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.SetPeerAddr(0, a.Addr()); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	stream := append(encodeFrame(1, []byte("before")), "this is not a frame\n"...)
	if _, err := raw.Write(stream); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	msg, err := a.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if msg.From != 1 || string(msg.Payload) != "before" {
		t.Errorf("got %d/%q, want 1/before", msg.From, msg.Payload)
	}
	select {
	case err := <-hookErrs:
		if !strings.Contains(err.Error(), "frame starts with") {
			t.Errorf("hook error = %v, want a bad-magic error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read error hook never fired for the garbage connection")
	}
	// The endpoint closed the garbage connection from its side.
	if err := raw.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Errorf("garbage connection still open: read err = %v", err)
	}

	if err := b.Send(ctx, 0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	msg, err = a.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv from the well-formed peer: %v", err)
	}
	if msg.From != 1 || string(msg.Payload) != "ok" {
		t.Errorf("got %d/%q, want 1/ok", msg.From, msg.Payload)
	}
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader. It must
// never panic, never hand back a body larger than the frame limit, and
// never return a sender id outside the cluster.
func FuzzReadFrame(f *testing.F) {
	const limit, peers = 64, 4
	f.Add(encodeFrame(2, []byte("payload")))
	f.Add(append(encodeFrame(0, nil), encodeFrame(3, []byte{tcpFrameMagic, 0})...))
	f.Add(encodeFrame(4, []byte("sender out of range")))
	f.Add(encodeFrame(1, bytes.Repeat([]byte{'x'}, limit)))
	f.Add([]byte{tcpFrameMagic, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{tcpFrameMagic, 0})
	f.Add([]byte{tcpFrameMagic, 5, 1})
	f.Add([]byte(`{"from":0,"payload":"b2s="}` + "\n"))
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bufio.NewReader(bytes.NewReader(stream))
		for {
			from, payload, err := readFrame(r, limit, peers)
			if err != nil {
				return
			}
			if from < 0 || from >= peers {
				t.Fatalf("sender id %d outside a cluster of %d", from, peers)
			}
			if cap(payload) > limit {
				t.Fatalf("frame body of capacity %d exceeds the limit %d", cap(payload), limit)
			}
		}
	})
}

// BenchmarkTCPSendRecv sends Report-sized payloads from one endpoint to
// another over loopback TCP and reports delivered messages per second.
func BenchmarkTCPSendRecv(b *testing.B) {
	a, c := tcpPair(b)
	ctx := context.Background()
	payload := bytes.Repeat([]byte{0xAB}, 33)       // a binary Report frame
	if err := a.Send(ctx, 1, payload); err != nil { // dial outside the timer
		b.Fatal(err)
	}
	if _, err := c.Recv(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	recvd := make(chan error, 1)
	go func() {
		for i := 0; i < b.N; i++ {
			if _, err := c.Recv(ctx); err != nil {
				recvd <- err
				return
			}
		}
		recvd <- nil
	}()
	for i := 0; i < b.N; i++ {
		if err := a.Send(ctx, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := <-recvd; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}
