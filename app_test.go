package tamp

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestAppProvideInvoke(t *testing.T) {
	s := NewSim(Clustered(2, 4), 5)
	apps := make([]*App, 8)
	for h := 0; h < 8; h++ {
		apps[h] = NewApp(s, HostID(h))
	}
	err := apps[6].Provide("Sum", "0", time.Millisecond, func(p int32, b []byte) ([]byte, error) {
		sum := 0
		for _, c := range b {
			sum += int(c)
		}
		return []byte(fmt.Sprint(sum)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps {
		a.Run()
	}
	s.Run(15 * time.Second)
	out, err := apps[1].InvokeWait("Sum", 0, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "6" {
		t.Fatalf("out = %q", out)
	}
	if _, err := apps[1].InvokeWait("Nope", 0, nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestAppLoadBalancing(t *testing.T) {
	s := NewSim(FlatLAN(4), 7)
	apps := make([]*App, 4)
	for h := 0; h < 4; h++ {
		apps[h] = NewApp(s, HostID(h))
	}
	served := map[int]int{}
	for _, h := range []int{1, 2, 3} {
		h := h
		apps[h].Provide("W", "0", 2*time.Millisecond, func(int32, []byte) ([]byte, error) {
			served[h]++
			return nil, nil
		})
	}
	for _, a := range apps {
		a.Run()
	}
	s.Run(10 * time.Second)
	for i := 0; i < 150; i++ {
		apps[0].Invoke("W", 0, nil, func([]byte, error) {})
		s.Run(15 * time.Millisecond)
	}
	s.Run(time.Second)
	total := 0
	for _, c := range served {
		total += c
		if c < 25 {
			t.Errorf("replica served only %d of 150; skewed: %v", c, served)
		}
	}
	if total != 150 {
		t.Fatalf("served %d of 150", total)
	}
}

func TestAppHandlerErrorIsRejection(t *testing.T) {
	s := NewSim(FlatLAN(2), 1)
	a0, a1 := NewApp(s, 0), NewApp(s, 1)
	a1.Provide("Bad", "0", time.Millisecond, func(int32, []byte) ([]byte, error) {
		return nil, errors.New("nope")
	})
	a0.Run()
	a1.Run()
	s.Run(10 * time.Second)
	if _, err := a0.InvokeWait("Bad", 0, nil); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

func TestDataCentersCrossDCInvocation(t *testing.T) {
	d := NewDataCenters(MultiDC(2, 1, 5), 2, 9)
	// "Ledger" only in DC1 (hosts 5-9; proxies on 6,7; provider on 8).
	d.App(8).Provide("Ledger", "0", time.Millisecond, func(p int32, b []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	d.StartAll()
	if !d.WaitConverged(time.Second, 30*time.Second) {
		t.Fatal("DCs never converged")
	}
	d.Run(15 * time.Second) // summaries propagate
	if _, ok := d.VIP(0); !ok {
		t.Fatal("DC0 has no VIP")
	}
	start := d.Now()
	out, err := d.App(2).InvokeWait("Ledger", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ok" {
		t.Fatalf("out = %q", out)
	}
	if d.Now()-start < 90*time.Millisecond {
		t.Fatalf("cross-DC call took %v, faster than the WAN round trip", d.Now()-start)
	}
}

// TestDataCentersProxyFailover stops only the App of DC0's VIP holder. Its
// co-located proxy goes down with it: after the failover window a backup
// holds the VIP, which never names the stopped host again, and cross-DC
// calls still go through. A proxy left running on the dead host re-claims
// the VIP once a beat; sampled every 100 ms that flap can fall between two
// samples, so the VIP is read every 10 ms.
func TestDataCentersProxyFailover(t *testing.T) {
	d := NewDataCenters(MultiDC(2, 1, 5), 2, 11)
	d.App(8).Provide("Ledger", "0", time.Millisecond, func(p int32, b []byte) ([]byte, error) {
		return []byte("ok"), nil
	})
	d.StartAll()
	d.WaitConverged(time.Second, 30*time.Second)
	d.Run(15 * time.Second)

	old, _ := d.VIP(0)
	d.App(old).Stop()
	d.Run(20 * time.Second)
	nw, ok := d.VIP(0)
	if !ok || nw == old {
		t.Fatalf("VIP did not fail over: %v -> %v", old, nw)
	}
	for end := d.Now() + 10*time.Second; d.Now() < end; d.Run(10 * time.Millisecond) {
		if h, _ := d.VIP(0); h == old {
			t.Fatalf("at %v the VIP is back on the stopped host %v", d.Now(), old)
		}
	}
	if out, err := d.App(3).InvokeWait("Ledger", 0, nil); err != nil || string(out) != "ok" {
		t.Fatalf("post-failover invoke: %q, %v", out, err)
	}
}

func TestInvokeWaitTimesOut(t *testing.T) {
	s := NewSim(FlatLAN(3), 5)
	a0, a1 := NewApp(s, 0), NewApp(s, 1)
	a1.Provide("Slow", "0", time.Millisecond, func(int32, []byte) ([]byte, error) { return nil, nil })
	a0.Run()
	a1.Run()
	s.Run(10 * time.Second)
	// Kill the provider's endpoint silently; the call must time out, not
	// hang the simulation.
	s.net.Endpoint(1).SetUp(false)
	start := s.Now()
	_, err := a0.InvokeWait("Slow", 0, nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if s.Now()-start > 3*time.Minute {
		t.Fatal("InvokeWait ran far past the request timeout")
	}
}

func TestInvokeNodeTargeted(t *testing.T) {
	s := NewSim(FlatLAN(4), 9)
	apps := make([]*App, 4)
	for h := 0; h < 4; h++ {
		apps[h] = NewApp(s, HostID(h))
	}
	served := map[int]int{}
	for _, h := range []int{1, 2} {
		h := h
		apps[h].Provide("T", "0", time.Millisecond, func(int32, []byte) ([]byte, error) {
			served[h]++
			return nil, nil
		})
	}
	for _, a := range apps {
		a.Run()
	}
	s.Run(10 * time.Second)
	for i := 0; i < 10; i++ {
		apps[0].InvokeNode(2, "T", 0, nil, func([]byte, error) {})
	}
	s.Run(time.Second)
	if served[1] != 0 || served[2] != 10 {
		t.Fatalf("targeted invocation leaked: %v", served)
	}
	// Targeting a node that does not host the service is rejected.
	var gotErr error
	apps[0].InvokeNode(3, "T", 0, nil, func(b []byte, err error) { gotErr = err })
	s.Run(time.Second)
	if !errors.Is(gotErr, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", gotErr)
	}
}

func TestAppLoadPushEnabled(t *testing.T) {
	s := NewSim(FlatLAN(3), 3)
	apps := []*App{
		NewAppConfig(s, 0, AppConfig{EnableLoadPush: true}),
		NewAppConfig(s, 1, AppConfig{EnableLoadPush: true}),
		NewAppConfig(s, 2, AppConfig{EnableLoadPush: true}),
	}
	for _, h := range []int{1, 2} {
		apps[h].Provide("E", "0", time.Millisecond, func(int32, []byte) ([]byte, error) { return nil, nil })
	}
	for _, a := range apps {
		a.Run()
	}
	s.Run(10 * time.Second)
	for i := 0; i < 10; i++ {
		if _, err := apps[0].InvokeWait("E", 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if apps[0].Load() != 0 {
		t.Fatal("consumer reports nonzero load")
	}
}
