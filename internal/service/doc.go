// Package service implements the cluster-based service runtime of the
// paper's motivating use case: partitioned, replicated services that are
// located via the membership directory and invoked over the simulated
// network (#10 in DESIGN.md's system inventory).
//
// A Runtime sits on one host next to a membership node — anything
// implementing the Member seam (core.Node, gossip.Node, alltoall.Node),
// so the same service and traffic layers run over all three schemes.
// Servers Register a
// named service with a partition list, a per-request service time, and a
// Handler; registration publishes the service through the membership
// protocol, so no separate service-discovery tier exists. Clients call
// Invoke(service, partition, payload, to, tag): the runtime looks candidate
// replicas up in the local membership directory, picks the least-loaded
// one using the loadinfo cache (polling replicas on a cache miss),
// sends a wire.ServiceRequest, retries on timeout against the next
// replica, and fails over when membership reports the replica dead.
//
// The queued-request count doubles as the load figure exported through
// loadinfo.Reporter, closing the loop the paper describes between
// membership, load dissemination, and request routing. SetRelayHandler
// lets the multi-DC proxy intercept requests whose partition lives in
// another data center. Candidates exposes the raw directory lookup and
// InvokeNode dispatches to a chosen replica, the seams the session-traffic
// layer (internal/traffic) uses to model replica-pinned clients.
//
// An invocation's outcome goes to a Done receiver with a caller-chosen tag,
// which the runtime carries in its records and hands back: Done runs exactly
// once per invocation, from an event of its own (never inside Invoke), and
// the payload it receives is packet memory, valid until it returns. A
// long-lived receiver (the traffic layer) packs which request it is into the
// tag, so it needs no per-request closure; a plain callback passes Func(cb)
// and tag 0.
//
// The request path owns no heap. A round trip allocates nothing: the two
// packets are framed into the runtimes' resident buffers and copied into
// recycled network buffers; an outstanding call, a request queued on its
// provider and a pending load poll are pooled records that are their own
// sim.Callback (a call holds its timeout as a by-value sim.Timer and its
// (Done, tag) pair; a poll keeps one slot per polled candidate); packets are
// framed by one resident wire.Encoder from resident message structs; and
// dispatch parses every packet once, with Packet.Decode, into the receiving
// endpoint's resident wire.Decoder record; a daemon handed a membership kind
// decodes it from the same record. Three rules follow, and the tests in
// pooled_test.go hold them. A record returns to its pool before user code
// runs, because completions re-enter Invoke (a serve record, which holds its
// handler's payload, after the reply). A reply finds its call by request ID
// through a map, never by record, so a late, duplicated or replayed reply
// cannot complete whatever call the record serves now. And the payload a
// Handler or a Done receives is valid until it returns (see Handler):
// queued and polled requests keep copies. Candidate lookup is
// membership.Directory.Hosts, an exact-name scan; the regex Lookup is the
// paper's client API and is not on this path.
package service
