package sim

import "repro/internal/transport"

// The simulated network is one backend of the transport seam: Serve and
// Client make *Network a transport.Transport, and *Node already speaks the
// Client/Server vocabulary (Go, Call, Notify, ID, Close). Every seeded-replay
// guarantee is carried through unchanged — the cluster layer talks to the
// interface, the interface talks to the same lanes, fates and inboxes.

// Compile-time interface conformance.
var (
	_ transport.Transport       = (*Network)(nil)
	_ transport.Client          = (*Node)(nil)
	_ transport.AsyncClient     = (*Node)(nil)
	_ transport.Server          = (*Node)(nil)
	_ transport.OverloadHarness = (*Node)(nil)
)

// Serve registers id on the network with the given handler and starts its
// node. With transport.WithAdmission the node gets the bounded priority
// service queue. The error return is for interface parity; the sim network
// cannot fail a registration.
func (n *Network) Serve(id string, h transport.Handler, opts ...transport.ServeOption) (transport.Server, error) {
	cfg := transport.ResolveServeOptions(opts)
	var nodeOpts []NodeOption
	if cfg.Admission != nil {
		nodeOpts = append(nodeOpts, WithAdmission(*cfg.Admission))
	}
	return NewAsyncNode(n, id, h, nodeOpts...), nil
}

// Client registers a caller-only node named id on the network.
func (n *Network) Client(id string) (transport.Client, error) {
	return NewNode(n, id, nil), nil
}
