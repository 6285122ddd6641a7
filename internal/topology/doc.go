// Package topology models the physical network layout of a service
// cluster — hosts, layer-2 switches, layer-3 routers, links, and data
// centers (#2 in DESIGN.md's system inventory).
//
// The membership protocol in this repository forms groups using IP TTL
// scoping, so the one quantity the rest of the system needs from a
// topology is: "which hosts does a multicast packet sent by host h with
// TTL t reach?" Routers decrement the TTL and drop packets that reach
// zero; layer-2 switches forward without touching it. A packet with TTL t
// therefore crosses at most t-1 routers, and the distance between two
// hosts is defined as the minimum TTL required to reach one from the other
// (routers on the best path + 1).
//
// One search answers every path question. From a source host it settles
// devices in (routers entered, latency, device ID) order: a multicast row
// takes the path with the fewest routers and, among those, the lowest
// latency; a unicast row counts no routers and takes the lowest latency.
// When two best paths tie, a device keeps the one through the neighbour
// settled first (the lower key, then the lower device ID), which fixes the
// marked links (MarkLink) a row reports.
//
// WAN links connect data centers. Multicast never crosses a WAN link,
// which is the property the paper's membership proxy protocol depends on.
//
// Key types and constructors:
//
//   - Topology: the immutable layout; HostID indexes hosts. Diameter,
//     MulticastScope, and the hop-distance queries drive group formation.
//   - FlatLAN(n): n hosts on one switch (a single TTL-1 group).
//   - Clustered(groups, perGroup): the paper's §6.2 evaluation layout —
//     groups of hosts behind switches on one core router.
//   - MultiDC: data centers joined by WAN links, for the proxy protocol.
//   - General/Figure-4 builders: topologies where TTL reachability is not
//     transitive, exercising the paper's overlapping-group rules.
package topology
