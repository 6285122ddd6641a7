package config

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/membership"
)

// Service is one [name] block from the *SERVICE section.
type Service struct {
	Name string
	// Partition is the raw PARTITION spec ("0", "1-3", ...).
	Partition string
	// Params are the remaining service-specific parameters in file order.
	Params []membership.KV
}

// File is a parsed configuration file.
type File struct {
	// System holds the *SYSTEM section's raw key/values in file order.
	System []membership.KV
	// Services holds the *SERVICE section blocks in file order.
	Services []Service
}

// SystemValue returns the raw value of a *SYSTEM key (case-insensitive) and
// whether it is present.
func (f *File) SystemValue(key string) (string, bool) {
	for _, kv := range f.System {
		if strings.EqualFold(kv.Key, key) {
			return kv.Value, true
		}
	}
	return "", false
}

// SystemInt returns a *SYSTEM key as an int, or def when absent.
func (f *File) SystemInt(key string, def int) (int, error) {
	v, ok := f.SystemValue(key)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil {
		return 0, fmt.Errorf("config: %s: %w", key, err)
	}
	return n, nil
}

// MulticastFrequency interprets MCAST_FREQ (packets per second) as the
// heartbeat interval, defaulting to one second.
func (f *File) MulticastFrequency() (time.Duration, error) {
	hz, err := f.SystemInt("MCAST_FREQ", 1)
	if err != nil {
		return 0, err
	}
	if hz <= 0 {
		return 0, fmt.Errorf("config: MCAST_FREQ must be positive, got %d", hz)
	}
	return time.Second / time.Duration(hz), nil
}

// Parse reads the configuration format from r.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	const (
		secNone = iota
		secSystem
		secService
	)
	section := secNone
	var cur *Service
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, ";") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "*"):
			name := strings.ToUpper(strings.TrimSpace(line[1:]))
			switch name {
			case "SYSTEM":
				section = secSystem
			case "SERVICE":
				section = secService
			default:
				return nil, fmt.Errorf("config: line %d: unknown section %q", lineNo, line)
			}
			cur = nil
		case strings.HasPrefix(line, "["):
			if section != secService {
				return nil, fmt.Errorf("config: line %d: service block outside *SERVICE", lineNo)
			}
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("config: line %d: unterminated service name", lineNo)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			if name == "" {
				return nil, fmt.Errorf("config: line %d: empty service name", lineNo)
			}
			f.Services = append(f.Services, Service{Name: name})
			cur = &f.Services[len(f.Services)-1]
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("config: line %d: expected KEY = VALUE", lineNo)
			}
			key := strings.TrimSpace(line[:eq])
			val := strings.TrimSpace(line[eq+1:])
			if key == "" {
				return nil, fmt.Errorf("config: line %d: empty key", lineNo)
			}
			switch section {
			case secSystem:
				f.System = append(f.System, membership.KV{Key: key, Value: val})
			case secService:
				if cur == nil {
					return nil, fmt.Errorf("config: line %d: parameter before any [service] block", lineNo)
				}
				if strings.EqualFold(key, "PARTITION") {
					if _, err := membership.ParsePartitions(val); err != nil {
						return nil, fmt.Errorf("config: line %d: %w", lineNo, err)
					}
					cur.Partition = val
				} else {
					cur.Params = append(cur.Params, membership.KV{Key: key, Value: val})
				}
			default:
				return nil, fmt.Errorf("config: line %d: parameter outside any section", lineNo)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// ParseString parses a configuration from a string.
func ParseString(s string) (*File, error) { return Parse(strings.NewReader(s)) }
