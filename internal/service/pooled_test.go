package service

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The tests in this file are about the runtime's own machinery — pooled call
// records, request IDs, poll slots, reject accounting — so they run it over a
// membership stand-in with a hand-filled directory: no daemon traffic, every
// event and every allocation on the wire is the runtime's.

// stubMember is a Member whose directory is filled in directly.
type stubMember struct {
	id       membership.NodeID
	dir      *membership.Directory // shared by every stub of one lan
	info     membership.MemberInfo
	received int       // packets the runtime delegated
	last     wire.Type // the kind of the last one, as the daemon decoded it
}

func (m *stubMember) ID() membership.NodeID            { return m.id }
func (m *stubMember) Directory() *membership.Directory { return m.dir }
func (m *stubMember) Running() bool                    { return true }

// Receive decodes the packet as a daemon does.
func (m *stubMember) Receive(pkt netsim.Packet) {
	m.received++
	m.last = wire.TInvalid
	if _, err := pkt.Decode(); err == nil {
		m.last = wire.Type(pkt.Payload[3])
	}
}

func (m *stubMember) RegisterService(name, partitions string, _ ...membership.KV) error {
	parts, err := membership.ParsePartitions(partitions)
	if err != nil {
		return err
	}
	m.info.Services = append(m.info.Services, membership.ServiceDecl{Name: name, Partitions: parts})
	m.info.Version++
	m.dir.Upsert(m.info.Clone(), membership.OriginDirect, 0, membership.NoNode, 0)
	return nil
}

// lan is n hosts on one switch, each a runtime over a stubMember, all reading
// one directory.
type lan struct {
	eng   *sim.Engine
	net   *netsim.Network
	stubs []*stubMember
	rts   []*Runtime
}

func newLAN(tb testing.TB, n int, cfg Config) *lan {
	tb.Helper()
	eng := sim.NewEngine(17)
	l := &lan{eng: eng, net: netsim.New(eng, topology.FlatLAN(n))}
	dir := membership.NewDirectory(0)
	for h := 0; h < n; h++ {
		m := &stubMember{id: membership.NodeID(h), dir: dir, info: membership.MemberInfo{Node: membership.NodeID(h), Incarnation: 1}}
		l.stubs = append(l.stubs, m)
		l.rts = append(l.rts, NewRuntime(cfg, eng, l.net.Endpoint(topology.HostID(h)), m))
	}
	return l
}

func (l *lan) register(tb testing.TB, h int, name string, serviceTime time.Duration, handler Handler) {
	tb.Helper()
	if err := l.rts[h].Register(name, "0", serviceTime, handler); err != nil {
		tb.Fatal(err)
	}
}

func (l *lan) run(d time.Duration) { l.eng.Run(l.eng.Now() + d) }

// outcome records what one invocation's callback saw, and how often.
type outcome struct {
	calls   int
	payload string
	err     error
	at      time.Duration
}

func (o *outcome) cb(eng *sim.Engine) Done {
	return Func(func(b []byte, err error) {
		o.calls++
		o.payload, o.err, o.at = string(b), err, eng.Now()
	})
}

func echo(_ int32, payload []byte) ([]byte, error) { return payload, nil }

// capture installs a delivery tap on host h that keeps every packet of type t
// as a fresh packet with a copy of its bytes: the delivered packet, and its
// bytes, go back to the network when its handler returns.
func (l *lan) capture(h int, t wire.Type) *[]netsim.Packet {
	var got []netsim.Packet
	l.net.Endpoint(topology.HostID(h)).SetFilter(func(pkt netsim.Packet) bool {
		if len(pkt.Payload) > 3 && wire.Type(pkt.Payload[3]) == t {
			got = append(got, netsim.Packet{Src: pkt.Src, Dst: pkt.Dst, Channel: pkt.Channel, TTL: pkt.TTL, Payload: bytes.Clone(pkt.Payload)})
		}
		return true
	})
	return &got
}

func (r *Runtime) poolSizes() (calls, servings, polls int) {
	return len(r.freeCalls), len(r.freeServings), len(r.freePolls)
}

// TestLateReplyAfterTimeout: a reply that arrives after its call timed out —
// and after the call's record went on to serve a newer call — resolves
// nothing. The newer call ends by its own reply.
func TestLateReplyAfterTimeout(t *testing.T) {
	l := newLAN(t, 3, DefaultConfig())
	l.register(t, 1, "Slow", 3*time.Second, echo) // slower than the 2s request timeout
	l.register(t, 2, "Fast", 500*time.Millisecond, echo)
	var first, second outcome
	l.rts[0].InvokeNode(1, "Slow", 0, []byte("one"), first.cb(l.eng), 0)
	l.run(2500 * time.Millisecond)
	if first.calls != 1 || !errors.Is(first.err, ErrTimeout) {
		t.Fatalf("first call: %+v, want one ErrTimeout", first)
	}
	// The timed-out record is the only one in the pool; the next call takes it.
	if len(l.rts[0].freeCalls) != 1 {
		t.Fatalf("%d call records pooled after the timeout, want 1", len(l.rts[0].freeCalls))
	}
	recycled := l.rts[0].freeCalls[0]
	l.rts[0].InvokeNode(2, "Fast", 0, []byte("two"), second.cb(l.eng), 0)
	if len(l.rts[0].freeCalls) != 0 || l.rts[0].calls[l.rts[0].nextReq] != recycled {
		t.Fatal("second call did not reuse the timed-out record")
	}
	l.run(300 * time.Millisecond) // the first call's reply lands here, at ~3s
	if first.calls != 1 || second.calls != 0 {
		t.Fatalf("late reply resolved something: first %+v second %+v", first, second)
	}
	l.run(5 * time.Second)
	if first.calls != 1 || second.calls != 1 || second.err != nil || second.payload != "two" {
		t.Fatalf("first %+v second %+v", first, second)
	}
}

// TestReplayedReplyIntoReusedRecord: a reply delivered again after its call
// completed (duplication, replay and stale re-delivery all do this) finds the
// call's record serving a newer call and must leave it alone.
//
// Mutant: capture keeps the delivered packet with cloned bytes, not a fresh one (-race).
func TestReplayedReplyIntoReusedRecord(t *testing.T) {
	l := newLAN(t, 2, DefaultConfig())
	l.register(t, 1, "Echo", time.Millisecond, echo)
	replies := l.capture(0, wire.TServiceReply)
	var first, second outcome
	l.rts[0].InvokeNode(1, "Echo", 0, []byte("one"), first.cb(l.eng), 0)
	l.run(100 * time.Millisecond)
	if first.calls != 1 || first.payload != "one" || len(*replies) != 1 {
		t.Fatalf("first call: %+v, %d replies captured", first, len(*replies))
	}
	l.rts[0].InvokeNode(1, "Echo", 0, []byte("two"), second.cb(l.eng), 0)
	for i := 0; i < 3; i++ {
		l.rts[0].dispatch((*replies)[0]) // the old reply, again, while "two" is in flight
	}
	if first.calls != 1 || second.calls != 0 {
		t.Fatalf("replayed reply resolved something: first %+v second %+v", first, second)
	}
	l.run(100 * time.Millisecond)
	if first.calls != 1 || second.calls != 1 || second.payload != "two" {
		t.Fatalf("first %+v second %+v", first, second)
	}
	if rejected := l.net.Endpoint(0).Stats().Rejected; rejected != 0 {
		t.Fatalf("a well-formed stale reply counted as %d rejects", rejected)
	}
}

// TestReplyAndTimeoutInTheSameInstant: when the reply arrives in the very
// instant the timeout fires, the call resolves exactly once — by the timeout,
// which was scheduled first — and one nanosecond of slack flips it to the
// reply, the cancelled timeout never firing.
func TestReplyAndTimeoutInTheSameInstant(t *testing.T) {
	roundTrip := func(timeout time.Duration) (outcome, uint64) {
		cfg := DefaultConfig()
		cfg.RequestTimeout = timeout
		l := newLAN(t, 2, cfg)
		l.register(t, 1, "Echo", time.Millisecond, echo)
		var o outcome
		l.rts[0].InvokeNode(1, "Echo", 0, []byte("x"), o.cb(l.eng), 0)
		l.run(10 * time.Second)
		if len(l.rts[0].calls) != 0 {
			t.Fatalf("timeout %v: %d calls still outstanding", timeout, len(l.rts[0].calls))
		}
		return o, l.eng.Steps()
	}
	probe, steps := roundTrip(time.Second)
	if probe.calls != 1 || probe.err != nil {
		t.Fatalf("probe: %+v", probe)
	}
	rtt := probe.at
	tie, tieSteps := roundTrip(rtt)
	if tie.calls != 1 || !errors.Is(tie.err, ErrTimeout) || tie.at != rtt {
		t.Fatalf("same instant: %+v, want exactly one ErrTimeout at %v", tie, rtt)
	}
	if tieSteps != steps+1 {
		t.Fatalf("same instant ran %d events, want the probe's %d plus the timeout", tieSteps, steps)
	}
	after, afterSteps := roundTrip(rtt + 1)
	if after.calls != 1 || after.err != nil || after.at != rtt {
		t.Fatalf("timeout 1ns after the reply: %+v, want exactly one success at %v", after, rtt)
	}
	if afterSteps != steps {
		t.Fatalf("a cancelled timeout fired: %d events, want %d", afterSteps, steps)
	}
}

// TestUnreachableDestination: when the transport refuses the send, the call
// is over at once — nothing outstanding, no timeout left to fire — and
// ErrUnavailable reaches the callback from an event of its own, not from
// inside InvokeNode.
func TestUnreachableDestination(t *testing.T) {
	l := newLAN(t, 2, DefaultConfig())
	l.register(t, 1, "Echo", time.Millisecond, echo)
	l.net.Endpoint(0).SetUp(false) // a down endpoint's Unicast reports false
	var o outcome
	l.rts[0].InvokeNode(1, "Echo", 0, nil, o.cb(l.eng), 0)
	if o.calls != 0 {
		t.Fatal("callback ran inside InvokeNode")
	}
	if len(l.rts[0].calls) != 0 {
		t.Fatal("refused call still outstanding")
	}
	steps := l.eng.Steps()
	l.run(0)
	if o.calls != 1 || !errors.Is(o.err, ErrUnavailable) || l.eng.Steps() != steps+1 {
		t.Fatalf("after one event: %+v (%d events)", o, l.eng.Steps()-steps)
	}
	if calls, _, _ := l.rts[0].poolSizes(); calls != 1 {
		t.Fatalf("%d call records in the pool, want the one that carried the error", calls)
	}
	l.run(10 * time.Second)
	if o.calls != 1 || l.eng.Steps() != steps+1 {
		t.Fatalf("something fired later: %+v, %d events", o, l.eng.Steps()-steps)
	}
}

// tagLog is a Done that records each completion it is handed: the tag, the
// payload, the error, and the engine's event count at the time.
type tagLog struct {
	eng *sim.Engine
	got []completion
}

type completion struct {
	tag     uint64
	payload string
	err     error
	step    uint64
}

func (d *tagLog) Done(tag uint64, payload []byte, err error) {
	d.got = append(d.got, completion{tag, string(payload), err, d.eng.Steps()})
}

// TestDoneGetsItsTagBack: on every path an invocation can resolve by, the
// Done receiver gets back exactly the tag it passed, exactly once, from an
// event of its own.
func TestDoneGetsItsTagBack(t *testing.T) {
	for i, tc := range []struct {
		name   string
		invoke func(l *lan, to Done, tag uint64)
		want   error
	}{
		{"reply ok", func(l *lan, to Done, tag uint64) {
			l.rts[0].InvokeNode(1, "Echo", 0, []byte("x"), to, tag)
		}, nil},
		{"rejected", func(l *lan, to Done, tag uint64) {
			l.rts[0].InvokeNode(1, "Nope", 0, []byte("x"), to, tag)
		}, ErrRejected},
		{"timeout", func(l *lan, to Done, tag uint64) {
			l.rts[0].InvokeNode(3, "Slow", 0, []byte("x"), to, tag)
		}, ErrTimeout},
		{"refused send", func(l *lan, to Done, tag uint64) {
			l.net.Endpoint(0).SetUp(false)
			l.rts[0].InvokeNode(1, "Echo", 0, []byte("x"), to, tag)
		}, ErrUnavailable},
		{"no candidate", func(l *lan, to Done, tag uint64) {
			l.rts[0].Invoke("Nope", 0, []byte("x"), to, tag)
		}, ErrUnavailable},
		{"polled", func(l *lan, to Done, tag uint64) {
			l.rts[0].Invoke("Echo", 0, []byte("x"), to, tag)
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLAN(t, 4, DefaultConfig())
			l.register(t, 1, "Echo", time.Millisecond, echo)
			l.register(t, 2, "Echo", time.Millisecond, echo)
			l.register(t, 3, "Slow", 3*time.Second, echo) // slower than the 2s request timeout
			d := &tagLog{eng: l.eng}
			tag := uint64(0xFEED)<<48 | uint64(i)<<32 | 0xFFFF_FFFF
			tc.invoke(l, d, tag)
			if polled := len(l.rts[0].polls) == 1; polled != (tc.name == "polled") {
				t.Fatalf("%d live polls after the Invoke", len(l.rts[0].polls))
			}
			invoked := l.eng.Steps()
			l.run(10 * time.Second)
			if len(d.got) != 1 {
				t.Fatalf("%d completions, want 1: %+v", len(d.got), d.got)
			}
			c := d.got[0]
			// An event fired between the Invoke and the completion.
			if c.tag != tag || c.err != tc.want || c.step <= invoked {
				t.Fatalf("completion %+v; want tag %#x, err %v, from an event of its own", c, tag, tc.want)
			}
			wantPayload := ""
			if tc.want == nil {
				wantPayload = "x"
			}
			if c.payload != wantPayload {
				t.Fatalf("payload %q, want %q", c.payload, wantPayload)
			}
		})
	}
}

// TestCallbackReentersInvoke: a callback that invokes again — directly and
// through lookup — runs on a record that was freed before it was called, so
// a chain of sequential calls needs one record in all.
func TestCallbackReentersInvoke(t *testing.T) {
	l := newLAN(t, 2, DefaultConfig())
	l.register(t, 1, "Echo", time.Millisecond, echo)
	rt := l.rts[0]
	var trace []string
	var step func(n int) func([]byte, error)
	step = func(n int) func([]byte, error) {
		return func(b []byte, err error) {
			trace = append(trace, fmt.Sprintf("%d:%s:%v", n, b, err))
			if n == 6 {
				return
			}
			next := []byte(fmt.Sprint("p", n+1))
			if n%2 == 0 {
				rt.InvokeNode(1, "Echo", 0, next, Func(step(n+1)), 0)
			} else {
				rt.Invoke("Echo", 0, next, Func(step(n+1)), 0) // one candidate: no poll
			}
			if len(rt.calls) != 1 {
				t.Fatalf("step %d: %d calls outstanding inside the callback, want 1", n, len(rt.calls))
			}
		}
	}
	rt.InvokeNode(1, "Echo", 0, []byte("p0"), Func(step(0)), 0)
	l.run(time.Second)
	want := "[0:p0:<nil> 1:p1:<nil> 2:p2:<nil> 3:p3:<nil> 4:p4:<nil> 5:p5:<nil> 6:p6:<nil>]"
	if fmt.Sprint(trace) != want {
		t.Fatalf("trace %v\nwant  %s", trace, want)
	}
	if calls, servings, _ := rt.poolSizes(); calls != 1 || len(rt.calls) != 0 {
		t.Fatalf("%d call records pooled (%d outstanding), want 1 (0)", calls, len(rt.calls))
	} else if _, provider, _ := l.rts[1].poolSizes(); servings != 0 || provider != 1 {
		t.Fatalf("serving records: consumer %d, provider %d; want 0, 1", servings, provider)
	}
}

// TestHandlerAppendLeavesPacketAlone: the handler's payload is a view of the
// request packet, which the network may deliver again; a handler that appends
// to it must get a copy, not write past the view into the packet.
func TestHandlerAppendLeavesPacketAlone(t *testing.T) {
	l := newLAN(t, 2, DefaultConfig())
	l.register(t, 1, "Bang", time.Millisecond, func(_ int32, payload []byte) ([]byte, error) {
		return append(payload, '!'), nil
	})
	requests := l.capture(1, wire.TServiceRequest)
	var o outcome
	// A short payload in front of the packet's size-class slack: an unclipped
	// view would have room to grow in place.
	l.rts[0].InvokeNode(1, "Bang", 0, []byte("hey"), o.cb(l.eng), 0)
	l.run(100 * time.Millisecond)
	if o.calls != 1 || o.err != nil || o.payload != "hey!" {
		t.Fatalf("%+v", o)
	}
	if len(*requests) != 1 {
		t.Fatalf("captured %d requests", len(*requests))
	}
	pkt := (*requests)[0].Payload
	if m, err := wire.Decode(pkt); err != nil {
		t.Fatalf("the request packet no longer decodes: %v", err)
	} else if req := m.(*wire.ServiceRequest); string(req.Payload) != "hey" {
		t.Fatalf("request packet payload is now %q", req.Payload)
	}
	if full := pkt[:cap(pkt)]; bytes.IndexByte(full[len(pkt):], '!') >= 0 {
		t.Fatalf("handler's append landed in the packet's spare capacity: %q", full)
	}
}

// TestScenarioRepeatsExactly runs one mixed scenario — polled invocations, a
// timeout, a refused send, a rejected request, re-entrant callbacks — twice
// from scratch: the event count and everything the callbacks saw must be
// identical, pooled records or not.
func TestScenarioRepeatsExactly(t *testing.T) {
	scenario := func() (uint64, string) {
		l := newLAN(t, 5, DefaultConfig())
		l.register(t, 1, "Echo", time.Millisecond, echo)
		l.register(t, 2, "Echo", 5*time.Millisecond, echo)
		l.register(t, 3, "Echo", time.Millisecond, echo)
		l.register(t, 4, "Slow", 3*time.Second, echo)
		rt := l.rts[0]
		var log []string
		note := func(tag string) func([]byte, error) {
			return func(b []byte, err error) {
				log = append(log, fmt.Sprintf("%v %s %q %v", l.eng.Now(), tag, b, err))
			}
		}
		for i := 0; i < 20; i++ {
			tag := fmt.Sprint("polled", i)
			rt.Invoke("Echo", 0, []byte(tag), Func(func(b []byte, err error) {
				note(tag)(b, err)
				rt.InvokeNode(1, "Echo", 0, b, Func(note(tag+"/again")), 0)
			}), 0)
			l.run(3 * time.Millisecond)
		}
		rt.InvokeNode(4, "Slow", 0, nil, Func(note("timeout")), 0)
		rt.InvokeNode(1, "Nope", 0, nil, Func(note("rejected")), 0)
		rt.Invoke("Nope", 0, nil, Func(note("unavailable")), 0)
		rt.InvokeNode(99, "Echo", 0, nil, Func(note("no such host")), 0)
		l.run(10 * time.Second)
		return l.eng.Steps(), fmt.Sprint(log)
	}
	steps1, log1 := scenario()
	steps2, log2 := scenario()
	if steps1 != steps2 || log1 != log2 {
		t.Fatalf("runs differ: %d vs %d events\n%s\n%s", steps1, steps2, log1, log2)
	}
	for _, want := range []string{"polled19/again", "timeout \"\" service: request timed out",
		"rejected \"\" service: rejected by proxy", "unavailable \"\" service: no available provider",
		"no such host \"\" service: no available provider"} {
		if !bytes.Contains([]byte(log1), []byte(want)) {
			t.Errorf("scenario log lacks %q:\n%s", want, log1)
		}
	}
}

// pollFixture starts one polled invocation from host 0 over candidates 1 and
// 2, with host 2 deaf to polls, and runs until host 1's reply is in: the poll
// is live, one of its two slots filled. It returns the poll's token and the
// requests delivered to the providers.
func pollFixture(t *testing.T) (l *lan, token uint64, requests *int, o *outcome) {
	l = newLAN(t, 4, DefaultConfig())
	l.register(t, 1, "Echo", time.Millisecond, echo)
	l.register(t, 2, "Echo", time.Millisecond, echo)
	requests = new(int)
	for h := 1; h <= 2; h++ {
		h := h
		l.net.Endpoint(topology.HostID(h)).SetFilter(func(pkt netsim.Packet) bool {
			switch wire.Type(pkt.Payload[3]) {
			case wire.TLoadPoll:
				return h == 1
			case wire.TServiceRequest:
				*requests++
			}
			return true
		})
	}
	o = new(outcome)
	l.rts[0].Invoke("Echo", 0, []byte("x"), o.cb(l.eng), 0)
	l.run(5 * time.Millisecond) // well inside the 20ms poll timeout
	if len(l.rts[0].polls) != 1 || *requests != 0 {
		t.Fatalf("fixture: %d live polls, %d requests sent", len(l.rts[0].polls), *requests)
	}
	for token = range l.rts[0].polls {
	}
	if p := l.rts[0].polls[token]; p.answered != 1 {
		t.Fatalf("fixture: %d of 2 candidates answered", p.answered)
	}
	return l, token, requests, o
}

// TestForgedLoadReplyDoesNotDecidePoll is the regression test for the quorum
// bug: a LoadReply echoing a live token from a host that was never polled
// used to count toward "every candidate answered" and fire the decision
// before a real candidate had.
func TestForgedLoadReplyDoesNotDecidePoll(t *testing.T) {
	l, token, requests, o := pollFixture(t)
	forged := wire.Encode(&wire.LoadReply{Token: token, Load: 0})
	l.rts[0].dispatch(netsim.Packet{Src: 3, Dst: 0, Payload: forged})
	if len(l.rts[0].polls) != 1 {
		t.Fatal("a reply from an unpolled host decided the poll")
	}
	l.run(10 * time.Millisecond) // 15ms: still short of the poll timeout
	if *requests != 0 {
		t.Fatal("request dispatched before the silent candidate's timeout")
	}
	l.run(100 * time.Millisecond)
	if *requests != 1 || o.calls != 1 || o.err != nil || o.at < pollTimeout {
		t.Fatalf("requests %d, outcome %+v", *requests, *o)
	}
}

// TestDuplicatedLoadReplyDoesNotDecidePoll: the same candidate answering
// twice is one answer.
func TestDuplicatedLoadReplyDoesNotDecidePoll(t *testing.T) {
	l, token, requests, o := pollFixture(t)
	dup := wire.Encode(&wire.LoadReply{Token: token, Load: 0})
	for i := 0; i < 3; i++ {
		l.rts[0].dispatch(netsim.Packet{Src: 1, Dst: 0, Payload: dup})
	}
	if len(l.rts[0].polls) != 1 || *requests != 0 {
		t.Fatal("a duplicated reply decided the poll")
	}
	l.run(100 * time.Millisecond)
	if *requests != 1 || o.calls != 1 || o.err != nil || o.at < pollTimeout {
		t.Fatalf("requests %d, outcome %+v", *requests, *o)
	}
	// And the answered poll's record came back exactly once.
	if _, _, polls := l.rts[0].poolSizes(); polls != 1 {
		t.Fatalf("%d poll records pooled, want 1", polls)
	}
}

// TestPollDecidesEarlyWhenAllAnswer: the early decision itself still works,
// and the answered poll's timeout still fires as a no-op.
func TestPollDecidesEarlyWhenAllAnswer(t *testing.T) {
	l := newLAN(t, 3, DefaultConfig())
	l.register(t, 1, "Echo", time.Millisecond, echo)
	l.register(t, 2, "Echo", time.Millisecond, echo)
	var o outcome
	l.rts[0].Invoke("Echo", 0, []byte("x"), o.cb(l.eng), 0)
	l.run(10 * time.Millisecond)
	if o.calls != 1 || o.err != nil || o.payload != "x" {
		t.Fatalf("not served inside the poll timeout: %+v", o)
	}
	if _, _, polls := l.rts[0].poolSizes(); polls != 0 {
		t.Fatal("poll record freed before its timeout event fired")
	}
	steps := l.eng.Steps()
	l.run(time.Second)
	if _, _, polls := l.rts[0].poolSizes(); polls != 1 || l.eng.Steps() != steps+1 || o.calls != 1 {
		t.Fatalf("after the poll timeout: %d pooled, %d more events, %d callbacks", polls, l.eng.Steps()-steps, o.calls)
	}
}

// TestBenchmarkCeilingsHold runs the allocation ceilings of the benchmarks
// below under plain `go test`, so a regression fails the suite and not only
// the CI bench smoke.
func TestBenchmarkCeilingsHold(t *testing.T) {
	roundTripCeiling(t)
	polledCeiling(t)
}

// roundTripCeiling builds the BenchmarkRuntimeRoundTrip fixture, checks its
// allocation ceiling, and returns one round trip.
func roundTripCeiling(tb testing.TB) func() {
	l := newLAN(tb, 2, DefaultConfig())
	l.register(tb, 1, "app", time.Millisecond, echo)
	payload := make([]byte, 64)
	done := 0
	cb := func(_ []byte, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		done++
	}
	round := func() {
		l.rts[0].InvokeNode(1, "app", 0, payload, Func(cb), 0)
		l.eng.RunAll()
	}
	round() // warm the pools
	// The request and the reply are framed into the runtimes' send buffers
	// and copied into recycled network buffers: nothing is left to allocate.
	if n := testing.AllocsPerRun(200, round); n != 0 {
		tb.Fatalf("one InvokeNode round trip allocates %v times, want 0", n)
	}
	if done < 200 {
		tb.Fatalf("%d round trips completed", done)
	}
	return round
}

// BenchmarkRuntimeRoundTrip measures one InvokeNode → serve → reply →
// callback round trip between two runtimes on a LAN, with a pre-built
// callback: the steady state of a pinned session.
func BenchmarkRuntimeRoundTrip(b *testing.B) {
	round := roundTripCeiling(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

func polledCeiling(tb testing.TB) func() {
	l := newLAN(tb, 3, DefaultConfig())
	l.register(tb, 1, "app", time.Millisecond, echo)
	l.register(tb, 2, "app", time.Millisecond, echo)
	payload := make([]byte, 64)
	done := 0
	cb := func(_ []byte, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		done++
	}
	round := func() {
		l.rts[0].Invoke("app", 0, payload, Func(cb), 0)
		l.eng.RunAll()
	}
	round()
	// Its packets — the poll (one framing, sent to both candidates), their two
	// load replies, the request, the reply — come from send and network
	// buffers, and the waiting request's payload is copied into the pooled
	// poll record: nothing is left to allocate.
	if n := testing.AllocsPerRun(200, round); n != 0 {
		tb.Fatalf("one polled Invoke allocates %v times, want 0", n)
	}
	if done < 200 {
		tb.Fatalf("%d invocations completed", done)
	}
	return round
}

// BenchmarkRuntimeInvokePolled measures one load-balanced invocation: the
// directory scan, a two-candidate poll, and the request to the winner.
func BenchmarkRuntimeInvokePolled(b *testing.B) {
	round := polledCeiling(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// TestMembershipKindsAreParsedOnce: the runtime parses every packet it is
// delivered, and the daemon it hands a membership kind to decodes the same
// packet from the same resident record: a heartbeat crossing the runtime into
// the daemon allocates nothing at either layer.
func TestMembershipKindsAreParsedOnce(t *testing.T) {
	l := newLAN(t, 2, DefaultConfig())
	payload := wire.Encode(&wire.Heartbeat{Info: membership.MemberInfo{Node: 1, Incarnation: 1}, Seq: 1})
	deliver := func() {
		l.net.Endpoint(1).Unicast(0, payload)
		l.eng.RunAll()
	}
	if n := testing.AllocsPerRun(100, deliver); n != 0 {
		t.Fatalf("delivering a heartbeat through the runtime allocates %v times", n)
	}
	if got, last := l.stubs[0].received, l.stubs[0].last; got != 101 || last != wire.THeartbeat {
		t.Fatalf("daemon received %d of 101 heartbeats, the last decoded as %v", got, last)
	}
	if rejected := l.net.Endpoint(0).Stats().Rejected; rejected != 0 {
		t.Fatalf("%d rejects", rejected)
	}
}

// TestCorruptPacketsAreTheRuntimesRejects pins who counts a bad packet when a
// runtime fronts a daemon: a packet that fails the frame check — whichever
// layer it was for — is one transport-level reject counted by the runtime and
// never reaches the daemon (core.Stats.PacketsRejected does not move), while a
// sound packet the daemon refuses on its own grounds (here: a replayed
// heartbeat) is the daemon's reject, counted once.
func TestCorruptPacketsAreTheRuntimesRejects(t *testing.T) {
	f := newFixture(t, topology.FlatLAN(2))
	f.runtimes[1].Register("Echo", "0", time.Millisecond, echoHandler("n1"))
	var heartbeat netsim.Packet
	f.net.Endpoint(0).SetFilter(func(pkt netsim.Packet) bool {
		if pkt.Multicast() && wire.Type(pkt.Payload[3]) == wire.THeartbeat {
			heartbeat = netsim.Packet{Src: pkt.Src, Dst: pkt.Dst, Channel: pkt.Channel, TTL: pkt.TTL, Payload: bytes.Clone(pkt.Payload)}
		}
		return true
	})
	f.startAll()
	f.run(10 * time.Second)
	if heartbeat.Payload == nil {
		t.Fatal("no heartbeat captured")
	}
	ep, node, rt := f.net.Endpoint(0), f.nodes[0], f.runtimes[0]
	counters := func() [2]uint64 { return [2]uint64{ep.Stats().Rejected, node.Stats().PacketsRejected} }
	flipCRC := func(b []byte) []byte {
		out := append([]byte(nil), b...)
		out[4] ^= 0x01
		return out
	}
	base := counters()
	heard := node.Stats().HeartbeatsReceived

	bad := heartbeat
	bad.Payload = flipCRC(heartbeat.Payload)
	rt.dispatch(bad)
	if got, want := counters(), [2]uint64{base[0] + 1, base[1]}; got != want {
		t.Fatalf("flipped-CRC heartbeat: (transport, daemon) rejects %v, want %v", got, want)
	}

	req := wire.Encode(&wire.ServiceRequest{ReqID: 1, From: 1, Service: "Echo", Payload: []byte("x")})
	rt.dispatch(netsim.Packet{Src: 1, Dst: 0, Payload: flipCRC(req)})
	if got, want := counters(), [2]uint64{base[0] + 2, base[1]}; got != want {
		t.Fatalf("flipped-CRC request: (transport, daemon) rejects %v, want %v", got, want)
	}
	if node.Stats().HeartbeatsReceived != heard || rt.Load() != 0 {
		t.Fatal("a corrupt packet was acted on")
	}

	rt.dispatch(heartbeat) // intact, but the daemon has seen this sequence number
	if got, want := counters(), [2]uint64{base[0] + 3, base[1] + 1}; got != want {
		t.Fatalf("replayed heartbeat: (transport, daemon) rejects %v, want %v", got, want)
	}
}
