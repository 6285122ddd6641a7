package wire

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/membership"
)

// The decoders the in-place views replaced — every record of a packet built
// into a slice — kept as the references the views are checked against. Each
// takes a packet whose header is known to be good and reads its body through
// the slice-holding layout of the same kind, so every record is built.

// readBody reads the body of b into m through m's layout.
func readBody(b []byte, m Message) error {
	c := m.body(codec{reader: reader{buf: b, off: HeaderLen}, dir: reading})
	return c.done()
}

func refDecodeDirectory(b []byte) (*DirectoryMsg, error) {
	d := new(DirectoryMsg)
	if err := readBody(b, d); err != nil {
		return nil, err
	}
	return d, nil
}

func refDecodeGossip(b []byte) (*Gossip, error) {
	g := new(Gossip)
	if err := readBody(b, g); err != nil {
		return nil, err
	}
	return g, nil
}

// refRapidView is a RapidView with its carried records built.
type refRapidView struct {
	Seq      uint64
	Proposer membership.NodeID
	Members  []membership.NodeID
	Infos    []membership.MemberInfo
}

func (*refRapidView) wireType() Type { return TRapidView }

func (v *refRapidView) body(c codec) codec {
	c.u64(&v.Seq)
	c.id(&v.Proposer)
	c.ids(&v.Members)
	for i := range list(&c, &v.Infos) {
		c.info(&v.Infos[i])
	}
	return c
}

func refDecodeRapidView(b []byte) (*refRapidView, error) {
	v := new(refRapidView)
	if err := readBody(b, v); err != nil {
		return nil, err
	}
	return v, nil
}

// decodeLike decodes b, which a reference decoder judged with wantErr, and
// fails unless Decode agrees on acceptance and on the error — and, for a
// rejected body, unless nothing came back that a receiver could apply. It
// returns the decoded message, nil for a rejected one.
func decodeLike(t *testing.T, b []byte, wantErr error) Message {
	t.Helper()
	got, err := Decode(b)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("view decode error %v, materialising decode error %v\n%x", err, wantErr, b)
	}
	if err != nil && got != nil {
		t.Fatalf("rejected body still yielded %#v", got)
	}
	return got
}

// infoList is the list a sender builds from infos.
func infoList(infos ...membership.MemberInfo) InfoList {
	var l InfoList
	for _, m := range infos {
		l.Append(m)
	}
	return l
}

// listInfos materialises every record under a cursor, in order.
func listInfos(c InfoCursor) []membership.MemberInfo {
	var out []membership.MemberInfo
	for c.Next() {
		out = append(out, c.Info())
	}
	return out
}

// checkCursor fails unless c yields exactly want — the same prefix read in
// place, the same record when built — and ends having consumed every byte of
// the validated run, no more and no fewer.
func checkCursor(t *testing.T, c InfoCursor, want []membership.MemberInfo) {
	t.Helper()
	for i, info := range want {
		if !c.Next() {
			t.Fatalf("cursor ended at record %d of %d", i, len(want))
		}
		if p := c.Prefix(); p != info.Prefix() {
			t.Fatalf("record %d: prefix %+v, want %+v", i, p, info.Prefix())
		}
		if full := c.Info(); !reflect.DeepEqual(full, info) {
			t.Fatalf("record %d: info %#v, want %#v", i, full, info)
		}
	}
	if c.Next() {
		t.Fatal("cursor yields more records than the packet declares")
	}
	if len(c.rest) != 0 {
		t.Fatalf("cursor ended %d bytes short of the validated run", len(c.rest))
	}
}
