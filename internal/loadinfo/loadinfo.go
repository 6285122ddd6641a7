package loadinfo

import (
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

const (
	// ReportInterval is the push period while any consumer is interested.
	ReportInterval = 250 * time.Millisecond
	// interestWindow is how long after its last request a consumer keeps
	// receiving reports.
	interestWindow = 5 * time.Second
)

// Reporter pushes a provider's load to recently interested consumers.
type Reporter struct {
	eng  *sim.Engine
	ep   netsim.Transport
	id   membership.NodeID
	load func() uint32

	// lapse is, per consumer, the first instant its interest is over (zero:
	// it never asked). Reports go out in ascending consumer ID, so one seed
	// gives one run.
	lapse membership.Table[time.Duration]
	seq   uint64

	// enc, buf and report frame push's one packet per round, which goes to
	// the interested consumers listed in to in one send.
	enc    wire.Encoder
	buf    []byte
	report wire.LoadReport
	to     []topology.HostID
}

// NewReporter creates a reporter that reads the provider's instantaneous
// load from load().
func NewReporter(eng *sim.Engine, ep netsim.Transport, load func() uint32) *Reporter {
	return &Reporter{eng: eng, ep: ep, id: membership.NodeID(ep.ID()), load: load}
}

// Start begins pushing.
func (r *Reporter) Start() { sim.NewJitteredTicker(r.eng, ReportInterval, r.push) }

// NoteConsumer records that a consumer just used this provider; the
// service runtime calls it for every served request.
func (r *Reporter) NoteConsumer(id membership.NodeID) {
	if id == r.id {
		return
	}
	*r.lapse.Ensure(id) = r.eng.Now() + interestWindow + 1
}

// InterestedCount returns the number of currently interested consumers.
func (r *Reporter) InterestedCount() (n int) {
	r.eachInterested(func(membership.NodeID) { n++ })
	return n
}

func (r *Reporter) eachInterested(fn func(membership.NodeID)) {
	now := r.eng.Now()
	r.lapse.Each(func(id membership.NodeID, over *time.Duration) {
		if now < *over {
			fn(id)
		}
	})
}

func (r *Reporter) push() {
	if r.InterestedCount() == 0 {
		return
	}
	r.seq++
	r.report = wire.LoadReport{From: r.id, Seq: r.seq, Load: r.load()}
	r.buf = r.enc.AppendEncode(r.buf[:0], &r.report)
	r.to = r.to[:0]
	r.eachInterested(func(id membership.NodeID) { r.to = append(r.to, topology.HostID(id)) })
	r.ep.UnicastAll(r.to, r.buf)
}

// Sample is one cached provider load.
type Sample struct {
	Load uint32
	At   time.Duration
	seq  uint64
	held bool // the cache holds a sample for the provider
}

// Cache holds pushed load samples at a consumer.
type Cache struct {
	eng     *sim.Engine
	ttl     time.Duration
	samples membership.Table[Sample]
}

// NewCache creates a cache whose samples expire after ttl.
func NewCache(eng *sim.Engine, ttl time.Duration) *Cache {
	if ttl <= 0 {
		ttl = time.Second
	}
	return &Cache{eng: eng, ttl: ttl}
}

// Absorb applies one received report; reordered older reports are ignored.
func (c *Cache) Absorb(rep *wire.LoadReport) {
	s := c.samples.Ensure(rep.From)
	if s.held && rep.Seq <= s.seq {
		return
	}
	*s = Sample{Load: rep.Load, At: c.eng.Now(), seq: rep.Seq, held: true}
}

// Get returns a fresh sample for the provider, if any.
func (c *Cache) Get(id membership.NodeID) (Sample, bool) {
	s := c.samples.Get(id)
	if s == nil || !s.held || c.eng.Now()-s.At > c.ttl {
		return Sample{}, false
	}
	return *s, true
}

// Forget drops a provider (e.g. on membership leave), sequence mark and all.
func (c *Cache) Forget(id membership.NodeID) {
	if s := c.samples.Get(id); s != nil {
		*s = Sample{}
	}
}
