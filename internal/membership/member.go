package membership

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// NodeID identifies a cluster node. It equals the node's topology.HostID;
// the paper uses the IP address. Leader election picks the lowest ID.
type NodeID int32

// NoNode is the invalid node ID.
const NoNode NodeID = -1

func (n NodeID) String() string { return fmt.Sprintf("n%d", int32(n)) }

// KV is one attribute (machine or service configuration) published through
// the membership service. Attributes are kept sorted by key so encodings
// are deterministic.
type KV struct {
	Key   string
	Value string
}

// ServiceDecl declares one service instance hosted on a node: the service
// name, the data partitions it serves, and service-specific parameters
// (such as the HTTP "Port" in the paper's example configuration).
type ServiceDecl struct {
	Name       string
	Partitions []int32
	Params     []KV
}

// Clone returns a deep copy.
func (s ServiceDecl) Clone() ServiceDecl {
	out := ServiceDecl{Name: s.Name}
	out.Partitions = append([]int32(nil), s.Partitions...)
	out.Params = append([]KV(nil), s.Params...)
	return out
}

// MemberInfo is everything a node publishes about itself.
type MemberInfo struct {
	Node NodeID
	// Incarnation increases each time the node's daemon restarts, so a
	// rejoined node's fresh info supersedes stale entries.
	Incarnation uint32
	// Version increases on every update_value/delete_value call, so
	// receivers can discard out-of-date information for a live node.
	Version uint64
	// Beat is the node's liveness counter, incremented with every
	// heartbeat it sends. Relayed copies of this info are only considered
	// fresh while the beat keeps advancing, so stale snapshots cannot keep
	// a dead or partitioned node alive in remote directories.
	Beat     uint64
	Services []ServiceDecl
	Attrs    []KV // machine configuration from /proc in the paper
}

// Clone returns a deep copy.
func (m MemberInfo) Clone() MemberInfo {
	out := m
	out.Services = make([]ServiceDecl, len(m.Services))
	for i, s := range m.Services {
		out.Services[i] = s.Clone()
	}
	out.Attrs = append([]KV(nil), m.Attrs...)
	return out
}

// InfoPrefix is the fixed-size head of a MemberInfo — the identity and the
// three counters every merge decision is made on. On the wire it is the
// first 24 bytes of an encoded record (docs/WIRE.md §3), so a receiver can
// judge a record without decoding its services and attributes.
type InfoPrefix struct {
	Node        NodeID
	Incarnation uint32
	Version     uint64
	Beat        uint64
}

// Prefix returns m's fixed-size head.
func (m *MemberInfo) Prefix() InfoPrefix {
	return InfoPrefix{Node: m.Node, Incarnation: m.Incarnation, Version: m.Version, Beat: m.Beat}
}

// Newer reports whether p supersedes o for the same node, comparing
// (incarnation, version).
func (p InfoPrefix) Newer(o InfoPrefix) bool {
	if p.Incarnation != o.Incarnation {
		return p.Incarnation > o.Incarnation
	}
	return p.Version > o.Version
}

// SetAttr sets (or replaces) an attribute, keeping Attrs sorted by key.
func (m *MemberInfo) SetAttr(key, value string) {
	m.Attrs = setKV(m.Attrs, key, value)
}

// DeleteAttr removes an attribute; it reports whether the key was present.
func (m *MemberInfo) DeleteAttr(key string) bool {
	var ok bool
	m.Attrs, ok = deleteKV(m.Attrs, key)
	return ok
}

// Attr returns the value for key and whether it exists.
func (m *MemberInfo) Attr(key string) (string, bool) { return getKV(m.Attrs, key) }

// Self is a daemon's own side of the membership service: its identity, its
// directory, its published record and whether it runs. Every scheme's Node
// embeds one, so the publishing half of the paper's API (register_service,
// update_value, delete_value) and the lifecycle — a start begins a new life
// of the record, a stop ends it — are stated once, here.
type Self struct {
	info    MemberInfo
	dir     *Directory
	running bool
	clock   interface{ Now() time.Duration }
	// push, if set, runs after every versioned change while the node runs:
	// a scheme that pushes changes broadcasts them there.
	push func()
}

// NewSelf returns the stopped daemon record of node id, with an empty
// directory; push may be nil.
func NewSelf(id NodeID, push func()) Self {
	return Self{info: MemberInfo{Node: id}, dir: NewDirectory(id), push: push}
}

// ID returns the node identity.
func (s *Self) ID() NodeID { return s.info.Node }

// Directory returns the node's yellow-page directory.
func (s *Self) Directory() *Directory { return s.dir }

// Running reports whether the node is started.
func (s *Self) Running() bool { return s.running }

// Record returns the node's own record, for the scheme to advance its beat
// and to encode it in place.
func (s *Self) Record() *MemberInfo { return &s.info }

// Info returns a copy of the node's own published information.
func (s *Self) Info() MemberInfo { return s.info.Clone() }

// Begin starts a new life of the record: unless the node already runs
// (false), it marks it running, bumps the incarnation so the fresh record
// supersedes every copy of the old life, and enters it into the directory
// at clock's time.
func (s *Self) Begin(clock interface{ Now() time.Duration }) bool {
	if s.running {
		return false
	}
	s.clock, s.running = clock, true
	s.info.Incarnation++
	s.upsert()
	return true
}

// End marks the node stopped and reports whether it was running.
func (s *Self) End() bool {
	was := s.running
	s.running = false
	return was
}

func (s *Self) upsert() {
	s.dir.Upsert(s.info.Clone(), OriginSelf, 0, NoNode, s.clock.Now())
}

// RegisterService publishes a service hosted by this node (register_service);
// registering a name again replaces its declaration. The partition list uses
// the paper's "1-3" spec syntax.
func (s *Self) RegisterService(name, partitions string, params ...KV) error {
	parts, err := ParsePartitions(partitions)
	if err != nil {
		return err
	}
	decl := ServiceDecl{Name: name, Partitions: parts, Params: append([]KV(nil), params...)}
	i := 0
	for i < len(s.info.Services) && s.info.Services[i].Name != name {
		i++
	}
	if i == len(s.info.Services) {
		s.info.Services = append(s.info.Services, decl)
	} else {
		s.info.Services[i] = decl
	}
	s.published()
	return nil
}

// UpdateValue publishes a key/value pair (update_value).
func (s *Self) UpdateValue(key, value string) {
	s.info.SetAttr(key, value)
	s.published()
}

// DeleteValue removes a published key (delete_value); it reports whether
// the key was present.
func (s *Self) DeleteValue(key string) bool {
	ok := s.info.DeleteAttr(key)
	if ok {
		s.published()
	}
	return ok
}

// published versions a change of the record; a running node enters it into
// its directory and pushes it.
func (s *Self) published() {
	s.info.Version++
	if !s.running {
		return
	}
	s.upsert()
	if s.push != nil {
		s.push()
	}
}

func setKV(kvs []KV, key, value string) []KV {
	i := sort.Search(len(kvs), func(i int) bool { return kvs[i].Key >= key })
	if i < len(kvs) && kvs[i].Key == key {
		kvs[i].Value = value
		return kvs
	}
	kvs = append(kvs, KV{})
	copy(kvs[i+1:], kvs[i:])
	kvs[i] = KV{Key: key, Value: value}
	return kvs
}

func deleteKV(kvs []KV, key string) ([]KV, bool) {
	i := sort.Search(len(kvs), func(i int) bool { return kvs[i].Key >= key })
	if i < len(kvs) && kvs[i].Key == key {
		return append(kvs[:i], kvs[i+1:]...), true
	}
	return kvs, false
}

func getKV(kvs []KV, key string) (string, bool) {
	i := sort.Search(len(kvs), func(i int) bool { return kvs[i].Key >= key })
	if i < len(kvs) && kvs[i].Key == key {
		return kvs[i].Value, true
	}
	return "", false
}

// maxPartitions caps how many partitions one list may name, counted over
// its ranges before any is expanded: the spec comes from outside (a
// dirserver query, tampdir's stdin, a config file), and "0-2147483647" is
// nine bytes that would otherwise ask for tens of GB.
const maxPartitions = 1 << 16

// ParsePartitions parses the paper's partition list syntax: a
// comma-separated list of numbers and inclusive ranges, e.g. "1-3" or
// "0,2,5-7". Whitespace around items is ignored. An empty string yields an
// empty list. A list whose ranges name more than maxPartitions partitions
// in all, repeats included, is rejected.
func ParsePartitions(spec string) ([]int32, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	seen := map[int32]bool{}
	var out []int32
	named := int64(0)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("membership: empty item in partition list %q", spec)
		}
		lo, hi := part, part
		if i := strings.IndexByte(part, '-'); i > 0 {
			lo, hi = strings.TrimSpace(part[:i]), strings.TrimSpace(part[i+1:])
		}
		l, err := strconv.ParseInt(lo, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("membership: bad partition %q in %q", lo, spec)
		}
		h, err := strconv.ParseInt(hi, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("membership: bad partition %q in %q", hi, spec)
		}
		if h < l {
			return nil, fmt.Errorf("membership: inverted range %q in %q", part, spec)
		}
		if named += h - l + 1; named > maxPartitions {
			return nil, fmt.Errorf("membership: partition list %q names more than %d partitions", spec, maxPartitions)
		}
		for p := l; p <= h; p++ {
			if !seen[int32(p)] {
				seen[int32(p)] = true
				out = append(out, int32(p))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
