package protocol

// Serving-plane messages. The batch protocol (report/update) computes an
// allocation once; these kinds keep a converged cluster *serving*: access
// requests routed by the current plan, heartbeats feeding a failure
// detector, and plan distribution for live re-solves. Every request kind
// carries a caller-assigned ID echoed verbatim by its reply kind, so a
// client can correlate replies without the transport layer knowing the
// protocol (see ReplyIDOf).
const (
	// KindAccess is a client access request: "serve one unit of file
	// access on behalf of origin node Origin".
	KindAccess Kind = "access"
	// KindAccessReply answers an access with the serving node's
	// model-derived latency.
	KindAccessReply Kind = "access-reply"
	// KindPlan distributes a (re-)solved allocation to a serving node.
	KindPlan Kind = "plan"
	// KindPlanAck acknowledges adoption of a plan epoch.
	KindPlanAck Kind = "plan-ack"
	// KindPing is a heartbeat probe.
	KindPing Kind = "ping"
	// KindPong answers a ping with the node's current epoch and its
	// locally sensed per-origin demand rates.
	KindPong Kind = "pong"
)

// Access asks the receiving node to serve one file access. T is the
// virtual timestamp of the request (the load generator's tick clock, not
// wall time) — the serving node feeds it to its demand estimator. Epoch
// is the plan epoch the sender routed under; receivers serve regardless
// of any mismatch (stale routing is repaired by the next plan, never
// punished with an error).
type Access struct {
	ID     uint64  `json:"id"`
	Origin int     `json:"origin"`
	T      float64 `json:"t"`
	Epoch  int     `json:"epoch"`
}

// AccessReply reports the serving outcome. LatencyMicros is the
// model-derived access latency in integer microseconds: transfer cost
// d(origin, node) plus the M/M/1 waiting term at the serving node, both
// pure functions of protocol state so reports stay byte-deterministic.
type AccessReply struct {
	ID            uint64 `json:"id"`
	Node          int    `json:"node"`
	Origin        int    `json:"origin"`
	Epoch         int    `json:"epoch"`
	LatencyMicros int64  `json:"latency_micros"`
	Degraded      bool   `json:"degraded,omitempty"`
	Err           string `json:"err,omitempty"`
}

// Plan carries a full allocation to adopt. X always has cluster
// dimension; dead nodes hold zero. Alive marks the support the plan was
// solved over, Degraded whether that support is a strict subset of the
// cluster. Lambda and Q record the demand total and the KKT multiplier
// the solve certified against, so adopters can verify or log them.
type Plan struct {
	ID       uint64    `json:"id"`
	Epoch    int       `json:"epoch"`
	X        []float64 `json:"x"`
	Alive    []bool    `json:"alive"`
	Degraded bool      `json:"degraded,omitempty"`
	Lambda   float64   `json:"lambda"`
	Q        float64   `json:"q"`
}

// PlanAck confirms a node switched to Epoch (or was already at or past
// it — adoption is monotonic, replays are harmless).
type PlanAck struct {
	ID    uint64 `json:"id"`
	Epoch int    `json:"epoch"`
	Node  int    `json:"node"`
}

// Ping is a heartbeat probe carrying the prober's virtual timestamp.
type Ping struct {
	ID uint64  `json:"id"`
	T  float64 `json:"t"`
}

// Pong answers a ping. Rates is the node's locally sensed per-origin
// demand estimate at T (cluster dimension); the controller sums the
// vectors across nodes to reconstruct total per-origin demand whatever
// the current routing.
type Pong struct {
	ID    uint64    `json:"id"`
	Node  int       `json:"node"`
	Epoch int       `json:"epoch"`
	Rates []float64 `json:"rates"`
}

// EncodeAccess serializes an Access.
func EncodeAccess(a Access) ([]byte, error) {
	return EncodeBinary(Envelope{Kind: KindAccess, Access: &a})
}

// EncodeAccessReply serializes an AccessReply.
func EncodeAccessReply(a AccessReply) ([]byte, error) {
	return EncodeBinary(Envelope{Kind: KindAccessReply, AccessReply: &a})
}

// EncodePlan serializes a Plan.
func EncodePlan(p Plan) ([]byte, error) {
	return EncodeBinary(Envelope{Kind: KindPlan, Plan: &p})
}

// EncodePlanAck serializes a PlanAck.
func EncodePlanAck(p PlanAck) ([]byte, error) {
	return EncodeBinary(Envelope{Kind: KindPlanAck, PlanAck: &p})
}

// EncodePing serializes a Ping.
func EncodePing(p Ping) ([]byte, error) {
	return EncodeBinary(Envelope{Kind: KindPing, Ping: &p})
}

// EncodePong serializes a Pong.
func EncodePong(p Pong) ([]byte, error) {
	return EncodeBinary(Envelope{Kind: KindPong, Pong: &p})
}

// ReplyIDOf extracts the correlation ID from an encoded *reply* payload
// (access-reply, plan-ack, pong). It reports false for request kinds,
// batch-protocol kinds, and undecodable payloads. The transport client
// takes it as an injected hook — like RoundOf, it keeps the transport
// package protocol-agnostic.
func ReplyIDOf(payload []byte) (uint64, bool) {
	env, err := Decode(payload)
	if err != nil {
		return 0, false
	}
	switch env.Kind {
	case KindAccessReply:
		return env.AccessReply.ID, true
	case KindPlanAck:
		return env.PlanAck.ID, true
	case KindPong:
		return env.Pong.ID, true
	default:
		return 0, false
	}
}
