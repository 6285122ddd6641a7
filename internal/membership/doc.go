// Package membership defines the data model shared by every membership
// protocol in this repository (#5 in DESIGN.md's system inventory): node
// identities, the per-node service description carried in heartbeats, and
// the yellow-page Directory each node maintains.
//
// The paper's membership service publishes, for every cluster node, its
// aliveness plus relatively stable information — application service name,
// partition ID, machine configuration — and consumers query the directory
// with regular expressions over service name and partition list
// (lookup_service in Fig. 9). Dynamic load information is explicitly out
// of scope of the membership protocol itself (internal/loadinfo layers it
// above).
//
// Key types:
//
//   - NodeID and MemberInfo: a node's identity and its published record
//     (incarnation, version, liveness beat, ServiceDecl list, attributes).
//   - Self: the daemon record every scheme's Node embeds — its identity,
//     Directory, own MemberInfo and whether it runs — with the publishing
//     API (RegisterService, UpdateValue, DeleteValue) over that record.
//     Begin starts a new life of the record (incarnation bump, self
//     upsert), End stops it; a change published while running is upserted
//     and, for a scheme that pushes, handed to its push.
//   - Directory: the yellow page. Upsert merges received records by
//     (incarnation, version, beat) precedence; Remove tombstones departed
//     nodes against stale re-addition; Expired implements heartbeat
//     timeouts; Lookup answers the paper's regex + partition-spec queries;
//     AddObserver delivers Event notifications (join/leave/change) that
//     the experiments' detection/convergence recorders hook.
//   - Tombstones are states of the entry slot. Remove, with a tombstone
//     TTL set, keeps the removed node's slot as a tomb: its prefix holds
//     the incarnation and beat the node had, its LastRefresh the removal
//     time. A relayed record meets the tomb in the same lookup that would
//     find the entry, and is rejected while the tomb holds: within the TTL
//     and with no higher incarnation and no advanced beat. Expiry is read
//     there, lazily, so nothing sweeps the tombs; a Remove only deletes the
//     expired ones outside the window, which keeps the table's fallback map
//     bounded, and a chunk holding a tomb is not freed. Any re-add — direct
//     observation, or a relayed record with newer evidence — overwrites
//     the slot and so ends the tomb: a stale record that follows is a
//     refresh of a present member, never a rejection.
//   - Entry: a member's aliveness, apart from its content. Every merge,
//     refresh, expiry sweep and audit reads only the entry — the 24-byte
//     prefix (identity, incarnation, version, beat), LastRefresh, Relayer,
//     Level, Origin — which is 40 bytes with no pointer, so its Table's
//     chunks are 160-byte objects the collector never scans. Services and
//     attributes, which change only with the version, live in a second
//     Table keyed by node, holding a record only for a member that
//     publishes something; every read of them goes through
//     Directory.Content (Info joins the two halves). Entries are stored by
//     value, so the *Entry that Get and Range hand out stays valid while
//     its node is present, and a walk in ID order — Range, Expired, Lookup
//     — is a walk over the chunks.
//   - InfoPrefix, RelayedSource and Directory.MergeRelayed: the batch
//     entry point for a whole relayed snapshot (bootstrap and sync
//     replies, a leader's periodic republication, a gossip round's view).
//     It has the semantics
//     and event order of one relayed Upsert per record, but decides each
//     record on its fixed 24-byte prefix — identity, incarnation,
//     version, beat — and asks the source for the full MemberInfo only
//     when the node is new or the content is newer, so the steady state
//     of anti-entropy allocates nothing. The caller says where joins and
//     tombstoned records are reported, or that they are not.
//   - Table: the one per-peer storage. What a daemon knows about node p is
//     one record of the daemon's own type T, by value, indexed by p's ID:
//     four consecutive IDs to a chunk allocated when the first of them is
//     created and never moved, under a pointer table bounded by the 64 Ki-ID
//     window, so hearing 20 peers out of 1000 costs half a dozen chunks; an
//     ID outside the window costs a map entry and sizes nothing. Get is two
//     array loads, Each visits in ascending ID. The Directory's entries and
//     contents are two; each scheme keeps its own (DESIGN.md, "Per-peer
//     state").
//   - Mark: the replay guard every heartbeat-driven scheme puts in front of
//     its receive path — the highest (incarnation, beat) pair accepted from
//     one sender; Advance is true only for a pair strictly above it. It is a
//     field of the receiver's per-peer record, not of the Directory: a mark
//     outlives its member's expiry, so a replay of a dead node's traffic is
//     rejected rather than readmitted. (The Freshness table it replaces was
//     a second hand-built copy of Table's storage.)
//   - Origin: how an entry was learned (direct heartbeat vs relayed by a
//     leader), which determines its lifetime rules under the paper's
//     Timeout Protocol.
package membership
