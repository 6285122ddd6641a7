package config

import (
	"testing"
	"time"
)

const paperExample = `
*SYSTEM
SHM_KEY = 999
MAX_TTL = 4
MCAST_ADDR = 239.255.0.2
MCAST_PORT = 10050
MCAST_FREQ = 1
MAX_LOSS = 5

*SERVICE
[HTTP]
    PARTITION = 0
    Port = 8080
[Cache]
    PARTITION = 2
`

func TestParsePaperExample(t *testing.T) {
	f, err := ParseString(paperExample)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := f.SystemValue("MCAST_ADDR"); !ok || v != "239.255.0.2" {
		t.Fatalf("MCAST_ADDR = %q, %v", v, ok)
	}
	if n, err := f.SystemInt("MAX_TTL", 0); err != nil || n != 4 {
		t.Fatalf("MAX_TTL = %d, %v", n, err)
	}
	if n, err := f.SystemInt("MAX_LOSS", 0); err != nil || n != 5 {
		t.Fatalf("MAX_LOSS = %d, %v", n, err)
	}
	if n, err := f.SystemInt("MISSING", 42); err != nil || n != 42 {
		t.Fatalf("default = %d, %v", n, err)
	}
	iv, err := f.MulticastFrequency()
	if err != nil || iv != time.Second {
		t.Fatalf("interval = %v, %v", iv, err)
	}
	if len(f.Services) != 2 {
		t.Fatalf("services = %+v", f.Services)
	}
	if f.Services[0].Name != "HTTP" || f.Services[0].Partition != "0" {
		t.Fatalf("svc0 = %+v", f.Services[0])
	}
	if len(f.Services[0].Params) != 1 || f.Services[0].Params[0].Key != "Port" || f.Services[0].Params[0].Value != "8080" {
		t.Fatalf("svc0 params = %+v", f.Services[0].Params)
	}
	if f.Services[1].Name != "Cache" || f.Services[1].Partition != "2" {
		t.Fatalf("svc1 = %+v", f.Services[1])
	}
}

func TestParseComments(t *testing.T) {
	f, err := ParseString("# leading comment\n*SYSTEM\n; semicolon comment\nA = 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := f.SystemValue("a"); v != "1" {
		t.Fatalf("case-insensitive lookup failed: %q", v)
	}
	if _, err := ParseString(""); err != nil {
		t.Fatalf("empty config should parse: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown section":       "*WAT\n",
		"block outside service": "*SYSTEM\n[HTTP]\n",
		"unterminated block":    "*SERVICE\n[HTTP\n",
		"empty service name":    "*SERVICE\n[]\n",
		"no equals":             "*SYSTEM\nfoo\n",
		"empty key":             "*SYSTEM\n= 3\n",
		"param before block":    "*SERVICE\nPARTITION = 0\n",
		"param outside section": "A = 1\n",
		"bad partition":         "*SERVICE\n[X]\nPARTITION = wat\n",
	}
	for name, in := range cases {
		if _, err := ParseString(in); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestBadSystemInt(t *testing.T) {
	f, err := ParseString("*SYSTEM\nMAX_TTL = banana\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.SystemInt("MAX_TTL", 0); err == nil {
		t.Fatal("want error for non-integer")
	}
	f2, _ := ParseString("*SYSTEM\nMCAST_FREQ = 0\n")
	if _, err := f2.MulticastFrequency(); err == nil {
		t.Fatal("want error for zero frequency")
	}
}
