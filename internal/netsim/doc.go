// Package netsim provides a simulated datagram network over a
// topology.Topology and a sim.Engine (#3 in DESIGN.md's system inventory).
//
// It models exactly what the membership protocols need from UDP/IP:
//
//   - TTL-scoped multicast: a packet sent on a channel with TTL t is
//     delivered to every subscribed, live host whose router-hop distance
//     from the sender is below t (see topology.MulticastScope), after the
//     per-receiver path latency.
//   - Unicast datagrams, which may cross WAN links.
//   - Independent per-receiver packet loss, optional latency jitter, and
//     packet duplication, each with configurable probability.
//   - Byte and packet accounting per endpoint (Stats), used by the
//     bandwidth experiments and aggregated into each run's
//     metrics.RunReport.
//
// Key types:
//
//   - Network: the fabric; owns every Endpoint, the loss/jitter models,
//     and TotalStats/ResetStats accounting. Its state is laid out per
//     logical process (LP) of a partition: a serial network is one LP with
//     no coordinator, and EnablePartition lays it over a parsim partition.
//   - Endpoint: one host's socket. Multicast/Unicast/UnicastAll send; SetHandler
//     receives; Join/Leave manage channel subscriptions (the IGMP
//     analogue); SetFilter lets experiments intercept deliveries; SetUp
//     simulates host/switch failures.
//   - Packet and Stats: the delivery unit (with UDPOverhead wire-size
//     accounting) and the per-endpoint counters.
//
// A packet's size is modelled, not only counted. The paper's packet sizes
// come from padding that no encoder writes: a padded heartbeat, rapid beat or
// gossip view declares its inert tail in its last field (wire.Padding), and
// the network reads it once at send. The modelled length — bytes plus tail —
// is what WireSize, every byte counter and the WAN counter add, and what the
// byte faults act on. Corruption and truncation make the draws a carried zero
// run would have taken, over the modelled length: a flip in the tail is
// recorded, not written, and a padded packet left damaged, or cut anywhere
// short of its end, is spoiled (wire.Spoil) so that every decoder rejects it,
// as the body checksum over the zero run did. tail_test.go holds the model to
// that carried format: the same packets materialised with their zeros, the
// same seeds, the same verdict, size and next draw at every delivery,
// serially and partitioned.
//
// What is scheduled is a run, not a copy: one send loop cuts a receiver list —
// a multicast's cached fan-out, or the hosts of a UnicastAll, which sends one
// payload to many hosts — into maximal stretches of consecutive receivers
// whose copies the engine could not tell apart — same LP as the sender, same
// arrival instant, no marked link on the path, no draw at send time — and each
// stretch travels as one pooled delivery record and one sim event. A unicast
// run's record names its first receiver, and arrival addresses each copy to
// its own. At arrival Fire walks the receivers in fan-out order and does per
// copy what a per-copy event would: the up, subscription and filter checks,
// the loss and byte-fault draws from the firing engine, the replay ring, the
// stale re-delivery. The k events a run replaces held consecutive sequence
// numbers at one instant, so nothing could ever fire between them and one
// sequence number preserves every order; the run adds its length to
// Engine.Steps, so event counts do not change either. A unicast, or a copy
// that is jittered, duplicated, gray, routed over a marked link or bound for
// another LP, is a run of one through the same record and the same Fire: there
// is one delivery path. A run owns a copy of its receivers, because the cached
// fan-out it was cut from is rebuilt in place by the next Join/Leave or
// topology fault. The argument is spelled out on Endpoint.send and checked by
// run_test.go, which replays seeded scripts with runs and with every run
// capped at one receiver (an unexported field only the tests set), and with
// every fan-out sent in one UnicastAll and as a Unicast per host, and compares
// handler logs (each copy's Dst among them), Stats, Steps, RNG state and WAN
// bytes, serially and partitioned.
//
// The network owns packet bytes, and holds each packet in one record, a send
// buffer: Multicast and Unicast copy the payload, as sendto does, into a
// buffer from the sending LP's size-classed free lists, which carries the
// declared tail, counts its holders (delivery records, replay-ring slots) on
// one goroutine at a time, and holds the one decode they share, parsed at the
// first Packet.Decode through a wire.Decoder borrowed from the LP and returned
// with the buffer. So every receiver of a multicast on one LP, and every
// duplicate, stale re-delivery and replay of a packet, reads one parse,
// allocating no message for the kinds wire.Decoder keeps resident. The copies
// of a multicast bound for other LPs view the same buffer: each copy parked in
// an outbox counts as a hold on it, each receiving LP wraps the copies it
// drains in a small pooled loose record of its own that counts them, and when
// that record is let go its holds go back to the sending LP at the next window
// boundary, which settles them on its own goroutine. So a multicast makes one
// copy of its bytes however many LPs it reaches. A UnicastAll makes one for
// the copies that stay on the sender's LP, and one per copy bound for another,
// whose buffer changes hands at the boundary as a Unicast's does. A byte fault
// first copies the bytes it damages into a buffer of the receiving LP
// (sendbuf_test.go, decode_test.go). A packet, and what is decoded from it, is
// valid until its handler returns; under -race a released buffer is filled
// with a pattern, and decoding a packet kept past its handler panics.
//
// Delivery is best-effort and unordered, like UDP. All calls must be made
// from the simulation goroutine of the endpoint's LP; different Network
// instances are fully independent, which is what lets the harness run many
// simulations in parallel.
package netsim
