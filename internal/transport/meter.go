package transport

import (
	"context"
	"strconv"

	"filealloc/internal/metrics"
)

// meterByteBounds are the payload-size buckets shared by the send and
// receive histograms, picked from measured binary frame sizes: serving
// requests and replies take 9–17 bytes, a Report 31–35, an AggDown or a
// push-sum tick message 37, a 5-node Plan 72, a tick message with its
// share 85, an AggUp 102 and a 16-node Update 137.
var meterByteBounds = []int64{24, 48, 96, 192, 1024, 4096}

// MeteredEndpoint wraps an Endpoint and records per-node send/recv
// counters and payload-size histograms into a metrics.Registry. All
// recorded values are integer event counts keyed to messages the wrapped
// endpoint actually accepted or delivered, so two runs with identical
// message flows meter identically regardless of goroutine scheduling.
//
// The wrapper is transparent to crash recovery: if the inner endpoint
// supports Revive (FaultEndpoint does), the metered endpoint forwards it,
// and because the meter holds registry series rather than local state,
// counts are cumulative across crash/revive cycles.
type MeteredEndpoint struct {
	inner Endpoint

	sends     *metrics.Counter
	sendErrs  *metrics.Counter
	recvs     *metrics.Counter
	recvErrs  *metrics.Counter
	sentBytes *metrics.Histogram
	recvBytes *metrics.Histogram
}

var _ Endpoint = (*MeteredEndpoint)(nil)

// NewMeteredEndpoint wraps inner, registering its series under the
// endpoint's node id.
func NewMeteredEndpoint(inner Endpoint, reg *metrics.Registry) *MeteredEndpoint {
	node := metrics.L("node", strconv.Itoa(inner.ID()))
	return &MeteredEndpoint{
		inner: inner,
		sends: reg.Counter("fap_transport_sends_total",
			"payloads accepted by the transport", node),
		sendErrs: reg.Counter("fap_transport_send_errors_total",
			"sends that returned an error", node),
		recvs: reg.Counter("fap_transport_recvs_total",
			"messages delivered to the agent", node),
		recvErrs: reg.Counter("fap_transport_recv_errors_total",
			"receives that returned an error", node),
		sentBytes: reg.Histogram("fap_transport_sent_bytes",
			"payload size of accepted sends", meterByteBounds, node),
		recvBytes: reg.Histogram("fap_transport_recv_bytes",
			"payload size of delivered messages", meterByteBounds, node),
	}
}

func (m *MeteredEndpoint) ID() int    { return m.inner.ID() }
func (m *MeteredEndpoint) Peers() int { return m.inner.Peers() }

func (m *MeteredEndpoint) Send(ctx context.Context, to int, payload []byte) error {
	err := m.inner.Send(ctx, to, payload)
	if err != nil {
		m.sendErrs.Inc()
		return err
	}
	m.sends.Inc()
	m.sentBytes.Observe(int64(len(payload)))
	return nil
}

func (m *MeteredEndpoint) Recv(ctx context.Context) (Message, error) {
	msg, err := m.RecvUncounted(ctx)
	if err == nil {
		m.CountRecv(len(msg.Payload))
	}
	return msg, err
}

// RecvUncounted receives like Recv but leaves counting the delivery to
// the caller's CountRecv, so a round loop that reads ahead can count a
// message when its round takes it rather than when the wire delivered
// it. Errors count at once.
func (m *MeteredEndpoint) RecvUncounted(ctx context.Context) (Message, error) {
	msg, err := m.inner.Recv(ctx)
	if err != nil {
		m.recvErrs.Inc()
	}
	return msg, err
}

// CountRecv counts one delivered message of size payload bytes.
func (m *MeteredEndpoint) CountRecv(size int) {
	m.recvs.Inc()
	m.recvBytes.Observe(int64(size))
}

func (m *MeteredEndpoint) Close() error { return m.inner.Close() }

// Revive forwards to the inner endpoint when it supports crash/revive
// cycles; supervisors revive through the metered wrapper so the registry
// series — and with them the cumulative counts — survive restarts.
func (m *MeteredEndpoint) Revive() {
	if r, ok := m.inner.(interface{ Revive() }); ok {
		r.Revive()
	}
}

// Unwrap exposes the wrapped endpoint (for tests and fault inspection).
func (m *MeteredEndpoint) Unwrap() Endpoint { return m.inner }

// PublishFaultStats copies a FaultStats snapshot into reg as
// fap_transport_faults_total{node,kind} counters. Call it once per
// endpoint after a run completes; the counters are set by a single Add
// from zero, so repeated runs should use fresh registries.
func PublishFaultStats(reg *metrics.Registry, node int, s FaultStats) {
	nl := metrics.L("node", strconv.Itoa(node))
	kinds := []struct {
		kind string
		n    int64
	}{
		{"send_dropped", s.SendDropped},
		{"send_delayed", s.SendDelayed},
		{"send_duplicated", s.SendDuplicated},
		{"send_partitioned", s.SendPartitioned},
		{"recv_dropped", s.RecvDropped},
		{"recv_delayed", s.RecvDelayed},
		{"recv_duplicated", s.RecvDuplicated},
		{"recv_reordered", s.RecvReordered},
		{"recv_partitioned", s.RecvPartitioned},
		{"crashes", s.Crashes},
		{"crash_refused", s.CrashRefused},
	}
	for _, k := range kinds {
		reg.Counter("fap_transport_faults_total",
			"injected transport faults by kind", nl, metrics.L("kind", k.kind)).Add(k.n)
	}
}
