package tamp

import (
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dirserver"
	"repro/internal/membership"
	"repro/internal/netsim"
)

// MService is the membership service daemon on one node — the public
// mirror of the paper's MService class (Figure 8):
//
//	class MService {
//	    MService(const char *configuration);
//	    void control(int cmd, void *arg);
//	    int run(void);
//	    int register_service(const char *name, const char *partition);
//	    int update_value(const char *key, const void *value, int size);
//	    int delete_value(const char *key);
//	};
//
// The constructor takes the paper's configuration file format (*SYSTEM /
// *SERVICE sections); Run starts the daemon's announcer, receiver, status
// tracker, informer and contender duties (all as events on the simulated
// clock); services declared in the configuration are registered before the
// first heartbeat.
type MService struct {
	s       *Sim
	node    *core.Node
	changes *changeLog
}

// NewMService creates a membership daemon on host h of the simulation,
// configured from configText (the paper's file format; pass "" for
// defaults). The *SYSTEM keys MAX_TTL, MCAST_FREQ, MAX_LOSS and MCAST_PORT
// (as the base channel) are honoured, and every protocol timer counts
// heartbeats, so MCAST_FREQ scales them all; *SERVICE blocks are
// registered. Values the daemon cannot run with are an error.
func NewMService(s *Sim, h HostID, configText string) (*MService, error) {
	cfg := core.DefaultConfig()
	cfg.MaxTTL = s.top.Diameter()
	if cfg.MaxTTL < 1 {
		cfg.MaxTTL = 1
	}
	var file *config.File
	if configText != "" {
		var err error
		file, err = config.ParseString(configText)
		if err != nil {
			return nil, err
		}
		if v, err := file.SystemInt("MAX_TTL", cfg.MaxTTL); err != nil {
			return nil, err
		} else {
			cfg.MaxTTL = v
		}
		if v, err := file.SystemInt("MAX_LOSS", cfg.MaxLoss); err != nil {
			return nil, err
		} else {
			cfg.MaxLoss = v
		}
		if v, err := file.SystemInt("MCAST_PORT", int(cfg.BaseChannel)); err != nil {
			return nil, err
		} else {
			cfg.BaseChannel = netsim.ChannelID(v)
		}
		iv, err := file.MulticastFrequency()
		if err != nil {
			return nil, err
		}
		cfg.HeartbeatInterval = iv
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("tamp: configuration: %w", err)
	}
	// Keep a bounded change history so clients can reconcile after gaps.
	m := &MService{s: s, node: core.NewNode(cfg, s.net.Endpoint(h)), changes: &changeLog{capacity: 256}}
	m.node.Directory().AddObserver(m.changes.record)
	if file != nil {
		for _, svc := range file.Services {
			if err := m.RegisterService(svc.Name, svc.Partition, svc.Params...); err != nil {
				return nil, fmt.Errorf("tamp: registering %q: %w", svc.Name, err)
			}
		}
	}
	return m, nil
}

// ID returns the daemon's node identity.
func (m *MService) ID() NodeID { return m.node.ID() }

// Run starts the daemon (the paper's run()).
func (m *MService) Run() { m.node.Start(m.s.eng) }

// Stop kills the daemon, as the paper's experiments do to emulate a node
// failure.
func (m *MService) Stop() { m.node.Stop() }

// Leave departs gracefully: the node announces its own departure, so the
// cluster converges immediately instead of waiting out the failure
// detection window. Falls back to detection if the announcement is lost.
func (m *MService) Leave() { m.node.Leave() }

// Running reports whether the daemon is live.
func (m *MService) Running() bool { return m.node.Running() }

// RegisterService publishes a service with a partition list in the paper's
// spec syntax ("1-3", "0,2"), plus service-specific parameters.
func (m *MService) RegisterService(name, partitions string, params ...KV) error {
	return m.node.RegisterService(name, partitions, params...)
}

// UpdateValue publishes or replaces one attribute (update_value).
func (m *MService) UpdateValue(key, value string) { m.node.UpdateValue(key, value) }

// DeleteValue removes one attribute (delete_value); reports presence.
func (m *MService) DeleteValue(key string) bool { return m.node.DeleteValue(key) }

// IsLeader reports whether this node currently leads its membership group
// at the given tree level.
func (m *MService) IsLeader(level int) bool { return m.node.IsLeader(level) }

// ProtocolStats are the daemon's protocol counters (see core.Stats).
type ProtocolStats = core.Stats

// Stats returns the daemon's protocol counters since the last Run.
func (m *MService) Stats() ProtocolStats { return m.node.Stats() }

// Client returns a client handle to this node's yellow-page directory (the
// paper's MClient, which attached over shared memory; here the directory
// handle plays that role).
func (m *MService) Client() *MClient { return &MClient{dir: m.node.Directory(), changes: m.changes} }

// ServeDirectory starts a local directory server for this daemon — the §5
// daemon/client split: separate client processes connect to the returned
// address (the analogue of the paper's SHM_KEY) and issue lookup_service
// queries over a socket. The server republishes on every view change.
// Close the returned server when done.
func (m *MService) ServeDirectory() (*DirectoryServer, error) {
	s, err := dirserver.Serve()
	if err != nil {
		return nil, err
	}
	m.node.Directory().AddObserver(func(membership.Event) {
		s.Publish(m.node.Directory().Snapshot())
	})
	s.Publish(m.node.Directory().Snapshot())
	return s, nil
}

// DirectoryServer serves a daemon's yellow page to external clients.
type DirectoryServer = dirserver.Server

// DirectoryClient is the client side of the §5 split.
type DirectoryClient = dirserver.Client

// DialDirectory connects a client to a daemon's directory server.
func DialDirectory(addr string) (*DirectoryClient, error) {
	return dirserver.DialClient(addr)
}

// MClient queries a node's local yellow-page directory — the public mirror
// of the paper's MClient class (Figure 9).
type MClient struct {
	dir     *membership.Directory
	changes *changeLog
}

// LookupService finds the machines hosting a service: servicePattern is an
// anchored regular expression over service names and partitionSpec is "*"
// or a partition list ("1-3"), exactly as in the paper's
// lookup_service(service, partition, &machines).
func (c *MClient) LookupService(servicePattern, partitionSpec string) (MachineList, error) {
	matches, err := c.dir.Lookup(servicePattern, partitionSpec)
	if err != nil {
		return nil, err
	}
	out := make(MachineList, 0, len(matches))
	for _, m := range matches {
		out = append(out, Machine{
			Node:       m.Node,
			Service:    m.Service,
			Partitions: m.Partitions,
			Params:     m.Params,
			Attrs:      m.Attrs,
		})
	}
	return out, nil
}

// Members returns the node IDs currently believed alive.
func (c *MClient) Members() []NodeID { return c.dir.View() }

// Len returns the number of known-alive nodes.
func (c *MClient) Len() int { return c.dir.Len() }

// ChangeEvent is one membership change notification.
type ChangeEvent = membership.Event

// ChangesSince returns the retained membership change events at or after
// t (oldest first) and whether the history is complete back to t; when
// incomplete, the caller should resynchronize from Members instead of
// applying the delta.
func (c *MClient) ChangesSince(t time.Duration) ([]ChangeEvent, bool) {
	return c.changes.since(t)
}

// changeLog is a bounded ring of a directory's recent change events, filled
// by a directory observer, letting clients reconcile after a gap ("what
// changed since T") without subscribing to every event. dropped says
// whether it has ever let an event go, and droppedAt is the time of the
// newest such event.
type changeLog struct {
	events    []ChangeEvent
	capacity  int
	dropped   bool
	droppedAt time.Duration
}

func (l *changeLog) record(e ChangeEvent) {
	l.events = append(l.events, e)
	if len(l.events) > l.capacity {
		if old := l.events[0]; !l.dropped || old.Time > l.droppedAt {
			l.dropped, l.droppedAt = true, old.Time
		}
		l.events = l.events[1:]
	}
}

// since returns the retained events at or after t, oldest first, and
// whether the log is complete back to t. It is complete when every dropped
// event predates t; a retained event at t proves nothing about another at
// the same instant that was dropped.
func (l *changeLog) since(t time.Duration) (events []ChangeEvent, complete bool) {
	for _, e := range l.events {
		if e.Time >= t {
			events = append(events, e)
		}
	}
	return events, !l.dropped || l.droppedAt < t
}

// Cluster bundles a simulation with one MService per host — the shape every
// example starts from.
type Cluster struct {
	*Sim
	Services []*MService
}

// NewCluster builds a simulated cluster with a default-configured MService
// on every host.
func NewCluster(top *Topology) *Cluster {
	return NewClusterSeed(top, 42)
}

// NewClusterSeed is NewCluster with an explicit RNG seed.
func NewClusterSeed(top *Topology, seed int64) *Cluster {
	s := NewSim(top, seed)
	c := &Cluster{Sim: s}
	for h := 0; h < top.NumHosts(); h++ {
		m, err := NewMService(s, HostID(h), "")
		if err != nil {
			panic(err) // defaults cannot fail
		}
		c.Services = append(c.Services, m)
	}
	return c
}

// MustService returns host h's membership daemon.
func (c *Cluster) MustService(h HostID) *MService { return c.Services[h] }

// StartAll runs every daemon.
func (c *Cluster) StartAll() {
	for _, m := range c.Services {
		m.Run()
	}
}

// Converged reports whether every running daemon's view equals the set of
// running daemons.
func (c *Cluster) Converged() bool { return viewsConverged(c.Services) }

// WaitConverged runs the simulation until convergence or the deadline
// elapses; it reports success.
func (c *Cluster) WaitConverged(step, deadline time.Duration) bool {
	return c.runUntil(c.Converged, step, deadline)
}

// viewsConverged reports whether every running daemon of ms sees exactly the
// running daemons of ms.
func viewsConverged(ms []*MService) bool {
	var want []NodeID
	for _, m := range ms {
		if m.Running() {
			want = append(want, m.ID())
		}
	}
	for _, m := range ms {
		if m.Running() && !membership.ViewEqual(m.Client().Members(), want) {
			return false
		}
	}
	return true
}

// runUntil runs the simulation in steps until done holds or the deadline
// elapses; it reports whether done holds.
func (s *Sim) runUntil(done func() bool, step, deadline time.Duration) bool {
	limit := s.Now() + deadline
	for s.Now() < limit {
		if done() {
			return true
		}
		s.Run(step)
	}
	return done()
}
