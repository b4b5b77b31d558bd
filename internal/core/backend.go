package core

import (
	"albatross/internal/flowtable"
	"albatross/internal/workload"
)

// Node-level flow steering: when NodeConfig.FlowBackend names a backend,
// Node.Ingress consults it to pick the pod for each flow instead of the
// legacy first-pod path. The backend's pool tracks the node's Active pods by
// slot index and is refreshed on every lifecycle transition (deploy, crash,
// restart, stop); an update remaps only the flows whose pod left the pool.

// Backend returns the node's flow-table backend (nil when NodeConfig left
// FlowBackend empty).
func (n *Node) Backend() *flowtable.Backend { return n.backend }

// refreshBackendPool rebuilds the backend's pod pool from the current
// lifecycle states. Flows whose pod left the pool are remapped (counted in
// BackendMoved); everything else keeps its assignment bit-for-bit.
func (n *Node) refreshBackendPool() {
	if n.backend == nil {
		return
	}
	pool := make([]int, 0, len(n.pods))
	for i, pr := range n.pods {
		if pr.state == podActive {
			pool = append(pool, i)
		}
	}
	n.BackendMoved += uint64(n.backend.Update(pool))
}

// Ingress injects one packet through the node's flow-table backend: the flow
// is looked up (inserting on miss) and the packet enters the chosen pod.
// Without a backend — or before any pod is deployed — this is exactly the
// legacy pods[0].Inject path, byte for byte.
func (n *Node) Ingress(f workload.Flow, bytes int) {
	if len(n.pods) == 0 {
		return
	}
	if n.backend == nil {
		n.pods[0].Inject(f, bytes)
		return
	}
	pod := flowtable.Select(n.backend, f.Tuple, n.Engine.Now())
	if pod < 0 || pod >= len(n.pods) {
		// Empty pool (every pod down): fall back to slot 0, whose lifecycle
		// gates count the loss or redirect.
		pod = 0
	}
	n.pods[pod].Inject(f, bytes)
}

// IngressSink adapts Ingress to a workload.Source sink.
func (n *Node) IngressSink() func(workload.Flow, int) {
	return func(f workload.Flow, bytes int) { n.Ingress(f, bytes) }
}

// FlowBackendName returns the active backend's configured name ("" when the
// node runs the legacy first-pod path).
func (n *Node) FlowBackendName() string { return n.cfg.FlowBackend }
