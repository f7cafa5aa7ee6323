// Cluster: run the actual decentralized protocol over TCP sockets.
//
// Five agents — each knowing only its own access cost, service rate, and
// the system-wide parameters — exchange marginal utilities over TCP
// loopback connections and negotiate the optimal allocation with no
// central solver anywhere in the process (broadcast mode). The example
// then verifies the negotiated allocation equalizes marginal costs, the
// optimality condition of section 5.3.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cluster: ")

	const n = 5
	// An asymmetric line topology: end nodes are expensive to reach, the
	// middle node is central, and service rates differ per node.
	line, err := topology.Line(n, 1)
	if err != nil {
		log.Fatal(err)
	}
	rates := []float64{0.3, 0.2, 0.2, 0.2, 0.1} // λ = 1
	access, err := topology.AccessCosts(line, rates, topology.RoundTrip)
	if err != nil {
		log.Fatal(err)
	}
	service := []float64{1.6, 1.8, 2.2, 1.8, 1.6}
	model, err := costmodel.NewSingleFile(access, service, 1, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Bind one TCP endpoint per agent on an ephemeral loopback port and
	// exchange the address book — the same bootstrap a real deployment
	// would do through its configuration system — then run one agent per
	// endpoint.
	endpoints, err := transport.ListenLoopback(n)
	if err != nil {
		log.Fatal(err)
	}
	init := make([]float64, n)
	for i := range init {
		init[i] = 1.0 / n
	}
	start := time.Now()
	res, err := agent.RunCluster(context.Background(), agent.ClusterConfig{
		Agent:     agent.Config{Alpha: 0.2, Epsilon: 1e-6},
		Models:    agent.ModelsFromSingleFile(model),
		Init:      init,
		Endpoints: endpoints,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := transport.CloseAll(endpoints); err != nil {
		log.Fatal(err)
	}

	x := res.X
	cost, err := model.Cost(x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("negotiated in %d rounds (%d TCP messages, %s)\n",
		res.Rounds, res.Messages, time.Since(start).Round(time.Millisecond))
	fmt.Printf("allocation: %.4v\n", x)
	fmt.Printf("expected cost per access: %.4f\n", cost)

	// Verify the section 5.3 optimality condition: equal marginal costs
	// on the support.
	grad := make([]float64, n)
	if err := model.Gradient(grad, x); err != nil {
		log.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, xi := range x {
		if xi > 1e-9 {
			lo = math.Min(lo, grad[i])
			hi = math.Max(hi, grad[i])
		}
	}
	fmt.Printf("marginal-cost spread on the support: %.2e (optimality: → 0)\n", hi-lo)
	if hi-lo > 1e-5 {
		log.Fatal("allocation does not satisfy the optimality condition")
	}
}
