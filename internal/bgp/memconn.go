package bgp

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// MemConn is an in-memory, buffered, duplex net.Conn — the transport the
// virtual-time BGP fabric runs real sessions over. net.Pipe is synchronous
// (a Write blocks until the peer Reads), which deadlocks BGP's simultaneous
// OPEN exchange; real TCP sockets buffer, and so does MemConn: writes append
// to the peer's buffer and never block, reads block only when the buffer is
// empty.
//
// Speakers in Manual mode additionally rely on ReadAvailable to drain
// exactly the bytes already written (see Speaker.Pump): because a Speaker
// writes each encoded message atomically, the buffered byte stream is always
// a whole number of messages.
type MemConn struct {
	rd *memHalf
	wr *memHalf
}

type memHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newMemHalf() *memHalf {
	h := &memHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *memHalf) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, errors.New("memconn: closed")
	}
	h.buf = append(h.buf, p...)
	h.cond.Broadcast()
	return len(p), nil
}

func (h *memHalf) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.buf) == 0 && !h.closed {
		h.cond.Wait()
	}
	if len(h.buf) == 0 {
		return 0, io.EOF
	}
	n := copy(p, h.buf)
	h.buf = h.buf[n:]
	return n, nil
}

func (h *memHalf) available() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.buf)
}

func (h *memHalf) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

// NewMemPipe returns two connected in-memory endpoints.
func NewMemPipe() (*MemConn, *MemConn) {
	a2b := newMemHalf()
	b2a := newMemHalf()
	return &MemConn{rd: b2a, wr: a2b}, &MemConn{rd: a2b, wr: b2a}
}

func (c *MemConn) Read(p []byte) (int, error)  { return c.rd.read(p) }
func (c *MemConn) Write(p []byte) (int, error) { return c.wr.write(p) }

// ReadAvailable returns the number of bytes buffered for reading without
// blocking.
func (c *MemConn) ReadAvailable() int { return c.rd.available() }

// Close closes both directions; blocked reads return EOF once drained.
func (c *MemConn) Close() error {
	c.rd.close()
	c.wr.close()
	return nil
}

type memAddr struct{}

// MemConn is handed to Speaker, Proxy and Switch as a net.Conn; the methods
// no session calls exist to satisfy that interface.
var (
	_ net.Conn = (*MemConn)(nil)
	_ net.Addr = memAddr{}
)

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

func (c *MemConn) LocalAddr() net.Addr                { return memAddr{} }
func (c *MemConn) RemoteAddr() net.Addr               { return memAddr{} }
func (c *MemConn) SetDeadline(t time.Time) error      { return nil }
func (c *MemConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *MemConn) SetWriteDeadline(t time.Time) error { return nil }
