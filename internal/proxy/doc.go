// Package proxy implements the paper's membership proxy protocol for
// multi-data-center deployments (#9 in DESIGN.md's system inventory).
//
// TTL-scoped multicast cannot cross WAN links, so each data center runs
// the hierarchical protocol internally and elects one proxy leader (the
// top-level membership leader) to speak for the site. Proxy leaders
// exchange compact per-service summaries (wire.ProxySummary: instance
// and partition counts, aggregate load) with the other sites' virtual IP
// addresses over unicast, rather than full directories — remote
// membership is coarse on purpose, sufficient for wide-area request
// routing and failover.
//
// Key types:
//
//   - Proxy: attached to a service.Runtime; Start hooks the local
//     membership tree, tracks whether this node is the site's proxy
//     leader, sends summaries while leading, and absorbs remote ones.
//     RemoteSummary answers "what does data center d know about service
//     s", which the request-routing experiments use to fail over across
//     sites.
//   - VIPTable: the static data-center → virtual-IP map standing in for
//     DNS/anycast in the simulation.
//   - Deploy / Deployment / Host: the one §5 deployment. Deploy gives every
//     host a service runtime that resolves its own data center's VIP, and
//     runs perDC proxies on each data center's hosts 1..perDC (never the
//     root leader); a proxy reads its DC, the remote DCs and its group TTL
//     (the topology's diameter) from the topology. A Host embeds its
//     *core.Node and starts and stops node and proxy as one failure unit.
//     The group channel, the beat interval, the full-summary cadence and
//     the staleness timeout that declares a remote site unreachable
//     (SummaryStale) are constants; SummaryRefresh is the closed-form
//     bound the harness audits against.
package proxy
