// Package transport exercises the lockguard and errdrop analyzers: its
// import path has a "transport" segment, so both the held-across-blocking
// check and the discarded-result check apply.
package transport

import (
	"context"
	"sync"
)

// Endpoint is a stand-in for the real transport endpoint.
type Endpoint struct {
	mu sync.Mutex
}

// Send pretends to deliver a payload.
func (e *Endpoint) Send(ctx context.Context, to int, p []byte) error { return nil }

// Recv pretends to receive a payload.
func (e *Endpoint) Recv(ctx context.Context) ([]byte, error) { return nil, nil }

// Close pretends to release the endpoint.
func (e *Endpoint) Close() error { return nil }

// CloseAll pretends to release every endpoint.
func CloseAll(eps []*Endpoint) error { return nil }

// Stats pretends to snapshot counters.
func (e *Endpoint) Stats() int { return 0 }

// use consumes a mutex by value, a violation at both declaration and call.
func use(mu sync.Mutex) {} // want lockguard: passed by value

// ByValueArg dereferences a mutex into a call argument.
func ByValueArg(mu *sync.Mutex) {
	use(*mu) // want lockguard: passed by value
}

// WaitByValue copies a WaitGroup through a parameter.
func WaitByValue(wg sync.WaitGroup) { wg.Wait() } // want lockguard: passed by value

// CopyAssign copies an existing mutex into a local.
func CopyAssign(e *Endpoint) {
	mu := e.mu // want lockguard: copied by value
	mu.Lock()
}

// FreshMutex is clean: initializing a zero-valued mutex is creation, not
// copying.
func FreshMutex() *sync.Mutex {
	mu := sync.Mutex{}
	return &mu
}

// HeldAcrossSend sends while holding the lock.
func (e *Endpoint) HeldAcrossSend(ctx context.Context) error {
	e.mu.Lock()
	err := e.Send(ctx, 1, nil) // want lockguard: while holding
	e.mu.Unlock()
	return err
}

// DeferredHold holds the lock through a deferred unlock across a Recv.
func (e *Endpoint) DeferredHold(ctx context.Context) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, err := e.Recv(ctx) // want lockguard: while holding
	return err
}

// ReleasedBeforeSend is clean: the lock is released before blocking.
func (e *Endpoint) ReleasedBeforeSend(ctx context.Context) error {
	e.mu.Lock()
	e.mu.Unlock()
	return e.Send(ctx, 1, nil)
}

// DropSend discards a Send error.
func DropSend(ctx context.Context, e *Endpoint) {
	e.Send(ctx, 1, nil) // want errdrop: result of Send discarded
}

// DropCloseDefer discards a Close error through defer.
func DropCloseDefer(e *Endpoint) {
	defer e.Close() // want errdrop: deferred Close
}

// DropSendGo discards a Send error through a go statement.
func DropSendGo(ctx context.Context, e *Endpoint) {
	go e.Send(ctx, 1, nil) // want errdrop: go statement
}

// BlankRecv blanks the Recv error.
func BlankRecv(ctx context.Context, e *Endpoint) []byte {
	m, _ := e.Recv(ctx) // want errdrop: error result of Recv
	return m
}

// BlankStats throws a Stats snapshot away.
func BlankStats(e *Endpoint) {
	_ = e.Stats() // want errdrop: all results of Stats
}

// DeferCloseAll drops the joined close errors of a whole cluster.
func DeferCloseAll(eps []*Endpoint) {
	defer CloseAll(eps) // want errdrop: deferred CloseAll
}

// Handled is the clean case: every result is consumed.
func Handled(ctx context.Context, e *Endpoint) error {
	if err := e.Send(ctx, 1, nil); err != nil {
		return err
	}
	if _, err := e.Recv(ctx); err != nil {
		return err
	}
	return e.Close()
}

// IgnoredSameLine demonstrates a valid same-line suppression.
func IgnoredSameLine(e *Endpoint) {
	e.Close() //fap:ignore errdrop fixture demonstrating a justified best-effort close
}

// IgnoredLineAbove demonstrates a valid line-above suppression.
func IgnoredLineAbove(e *Endpoint) {
	//fap:ignore errdrop fixture demonstrating the directive-above form
	e.Close()
}
