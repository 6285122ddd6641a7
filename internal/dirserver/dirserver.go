package dirserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/membership"
	"repro/internal/wire"
)

// maxFrame bounds one length-prefixed IPC frame.
const maxFrame = 16 << 20

// Server publishes directory snapshots and answers lookup queries.
type Server struct {
	ln net.Listener

	mu   sync.RWMutex
	snap *membership.Directory

	closed chan struct{}
	wg     sync.WaitGroup
}

// Serve starts a server on a loopback TCP port ("the shared memory key" of
// this implementation is the returned address).
func Serve() (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dirserver: listen: %w", err)
	}
	s := &Server{ln: ln, snap: membership.NewDirectory(membership.NoNode), closed: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's address for clients.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() {
	select {
	case <-s.closed:
		return
	default:
	}
	close(s.closed)
	s.ln.Close()
	s.wg.Wait()
}

// Publish installs a new snapshot of the daemon's directory. The caller
// passes cloned infos (membership.Directory.Snapshot already deep-copies);
// the server indexes them for regex lookups.
func (s *Server) Publish(infos []membership.MemberInfo) {
	d := membership.NewDirectory(membership.NoNode)
	for _, info := range infos {
		d.Upsert(info, membership.OriginRelayed, 0, membership.NoNode, 0)
	}
	s.mu.Lock()
	s.snap = d
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				continue
			}
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	for {
		payload, err := readFrame(conn)
		if err != nil {
			return
		}
		msg, err := wire.Decode(payload)
		if err != nil {
			writeFrame(conn, wire.Encode(&wire.DirMatches{Error: "bad query: " + err.Error()}))
			continue
		}
		q, ok := msg.(*wire.DirQuery)
		if !ok {
			writeFrame(conn, wire.Encode(&wire.DirMatches{Error: "unexpected packet"}))
			continue
		}
		s.mu.RLock()
		snap := s.snap
		s.mu.RUnlock()
		matches, err := snap.Lookup(q.Service, q.Partition)
		reply := &wire.DirMatches{OK: err == nil}
		if err != nil {
			reply.Error = err.Error()
		}
		for _, m := range matches {
			reply.Matches = append(reply.Matches, wire.DirMatch{
				Node:       m.Node,
				Service:    m.Service,
				Partitions: m.Partitions,
				Params:     m.Params,
				Attrs:      m.Attrs,
			})
		}
		if writeFrame(conn, wire.Encode(reply)) != nil {
			return
		}
	}
}

func readFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenBuf[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("dirserver: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func writeFrame(w io.Writer, payload []byte) error {
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Client is the membership client library endpoint: it connects to a
// daemon's directory server and issues lookup_service queries. Safe for
// sequential use; wrap with your own mutex for concurrent callers.
type Client struct {
	conn net.Conn
}

// DialClient connects to a daemon's directory server.
func DialClient(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dirserver: dial: %w", err)
	}
	return &Client{conn: conn}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ErrQuery wraps server-side lookup failures (e.g. a bad regex).
var ErrQuery = errors.New("dirserver: query rejected")

// Lookup performs one lookup_service call against the daemon.
func (c *Client) Lookup(servicePattern, partitionSpec string) ([]wire.DirMatch, error) {
	req := wire.Encode(&wire.DirQuery{Service: servicePattern, Partition: partitionSpec})
	if err := writeFrame(c.conn, req); err != nil {
		return nil, err
	}
	payload, err := readFrame(c.conn)
	if err != nil {
		return nil, err
	}
	msg, err := wire.Decode(payload)
	if err != nil {
		return nil, err
	}
	reply, ok := msg.(*wire.DirMatches)
	if !ok {
		return nil, fmt.Errorf("dirserver: unexpected reply %T", msg)
	}
	if !reply.OK {
		return nil, fmt.Errorf("%w: %s", ErrQuery, reply.Error)
	}
	return reply.Matches, nil
}
