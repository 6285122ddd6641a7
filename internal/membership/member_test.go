package membership

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePartitions(t *testing.T) {
	cases := []struct {
		in   string
		want []int32
		ok   bool
	}{
		{"", nil, true},
		{"0", []int32{0}, true},
		{"1-3", []int32{1, 2, 3}, true},
		{"0,2,5-7", []int32{0, 2, 5, 6, 7}, true},
		{" 1 - 3 , 5 ", []int32{1, 2, 3, 5}, true},
		{"3,1-3", []int32{1, 2, 3}, true}, // dedup
		{"3-1", nil, false},
		{"a", nil, false},
		{"1,", nil, false},
		{"1--2", nil, false},
	}
	for _, c := range cases {
		got, err := ParsePartitions(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePartitions(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParsePartitions(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestPartitionsRoundTrip writes a set of partitions as a comma list, in
// any order and with repeats, and parses it back to the set, sorted.
func TestPartitionsRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		set := map[int32]bool{}
		items := make([]string, len(raw))
		for i, r := range raw {
			set[int32(r%50)] = true
			items[i] = strconv.Itoa(int(r % 50))
		}
		back, err := ParsePartitions(strings.Join(items, ","))
		if err != nil || len(back) != len(set) {
			return false
		}
		for i, p := range back {
			if !set[p] || i > 0 && back[i-1] >= p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemberInfoAttrs(t *testing.T) {
	var m MemberInfo
	m.SetAttr("cpu", "2x1.4GHz")
	m.SetAttr("arch", "p3")
	m.SetAttr("cpu", "other") // replace
	if v, ok := m.Attr("cpu"); !ok || v != "other" {
		t.Fatalf("Attr(cpu) = %q,%v", v, ok)
	}
	if len(m.Attrs) != 2 || m.Attrs[0].Key != "arch" || m.Attrs[1].Key != "cpu" {
		t.Fatalf("attrs not sorted/merged: %v", m.Attrs)
	}
	if !m.DeleteAttr("arch") || m.DeleteAttr("arch") {
		t.Fatal("DeleteAttr semantics broken")
	}
	if _, ok := m.Attr("arch"); ok {
		t.Fatal("deleted attr still present")
	}
}

func TestMemberInfoNewer(t *testing.T) {
	a := MemberInfo{Incarnation: 1, Version: 5}
	b := MemberInfo{Incarnation: 1, Version: 6}
	c := MemberInfo{Incarnation: 2, Version: 0}
	if !b.Prefix().Newer(a.Prefix()) || a.Prefix().Newer(b.Prefix()) {
		t.Fatal("version comparison broken")
	}
	if !c.Prefix().Newer(b.Prefix()) || b.Prefix().Newer(c.Prefix()) {
		t.Fatal("incarnation should dominate version")
	}
	if a.Prefix().Newer(a.Prefix()) {
		t.Fatal("info newer than itself")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := MemberInfo{
		Node:     3,
		Services: []ServiceDecl{{Name: "http", Partitions: []int32{1}, Params: []KV{{"Port", "8080"}}}},
		Attrs:    []KV{{"cpu", "2"}},
	}
	c := m.Clone()
	c.Services[0].Partitions[0] = 99
	c.Services[0].Params[0].Value = "x"
	c.Attrs[0].Value = "y"
	if m.Services[0].Partitions[0] != 1 || m.Services[0].Params[0].Value != "8080" || m.Attrs[0].Value != "2" {
		t.Fatal("Clone shares memory with original")
	}
}
