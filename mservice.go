package tamp

import (
	"fmt"
	"slices"
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
	s    *Sim
	node *core.Node
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
	m := &MService{s: s, node: core.NewNode(cfg, s.net.Endpoint(h))}
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

// Client returns a client handle to this node's yellow-page directory (the
// paper's MClient, which attached over shared memory; here the directory
// handle plays that role).
func (m *MService) Client() *MClient { return &MClient{dir: m.node.Directory()} }

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
	dir *membership.Directory
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

// Members returns the node IDs currently believed alive, in ascending order.
func (c *MClient) Members() []NodeID { return c.dir.Nodes() }

// Len returns the number of known-alive nodes.
func (c *MClient) Len() int { return c.dir.Len() }

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
func (c *Cluster) Converged() bool {
	var want []NodeID
	for _, m := range c.Services {
		if m.Running() {
			want = append(want, m.ID())
		}
	}
	for _, m := range c.Services {
		if m.Running() && !slices.Equal(m.Client().Members(), want) {
			return false
		}
	}
	return true
}

// WaitConverged runs the simulation until convergence or the deadline
// elapses; it reports success.
func (c *Cluster) WaitConverged(step, deadline time.Duration) bool {
	limit := c.Now() + deadline
	for c.Now() < limit {
		if c.Converged() {
			return true
		}
		c.Run(step)
	}
	return c.Converged()
}
