package bgp

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"albatross/internal/packet"
)

// State is a BGP session state. The Connect/Active states of the full FSM
// are collapsed: speakers are constructed over an already-connected
// net.Conn.
type State int

// Session states.
const (
	StateIdle State = iota
	StateOpenSent
	StateOpenConfirm
	StateEstablished
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateOpenSent:
		return "open-sent"
	case StateOpenConfirm:
		return "open-confirm"
	case StateEstablished:
		return "established"
	case StateClosed:
		return "closed"
	default:
		return "invalid"
	}
}

// SpeakerConfig configures one side of a BGP session.
type SpeakerConfig struct {
	AS       uint16
	RouterID uint32
	// HoldTime; keepalives are sent every HoldTime/3. Default 90s.
	HoldTime time.Duration
	// PeerAS, when nonzero, is enforced against the peer's OPEN.
	PeerAS uint16
	// NextHop is the address written into advertised routes (next-hop-self
	// for eBGP). Zero value uses 10.ID-derived address.
	NextHop packet.IPv4Addr

	// OnRoute is invoked from the read loop for every learned or withdrawn
	// route after the RIB is updated. withdrawn=true means removal.
	OnRoute func(p Prefix, attrs PathAttrs, withdrawn bool)
	// OnEstablished fires when the session reaches Established.
	OnEstablished func()
	// OnDown fires when the session leaves Established (error or close).
	OnDown func(err error)

	// Manual disables the background read and keepalive goroutines: Start
	// performs only the handshake, and the owner drives the session
	// synchronously — Pump drains buffered inbound messages, SendKeepalive
	// emits keepalives on whatever clock the owner runs (the virtual-time
	// fabric uses the event engine). Manual sessions have no wall-clock hold
	// timer; liveness is the owner's responsibility. Pump requires a
	// transport that reports buffered bytes (MemConn).
	Manual bool
}

// Speaker is one endpoint of a BGP session.
type Speaker struct {
	cfg  SpeakerConfig
	conn net.Conn
	br   *bufio.Reader

	mu       sync.Mutex
	state    State
	peerOpen Open
	// effHold is the negotiated hold time: min(ours, peer's), per RFC 4271
	// §4.2. Zero disables keepalives and the hold timer.
	effHold  time.Duration
	lastRecv time.Time
	closed   bool
	adjIn    *RIB
	downErr  error

	writeMu sync.Mutex

	wg   sync.WaitGroup
	stop chan struct{}
}

// NewSpeaker wraps a connected net.Conn. Call Start (or Handshake) next.
func NewSpeaker(conn net.Conn, cfg SpeakerConfig) *Speaker {
	if cfg.HoldTime <= 0 {
		cfg.HoldTime = 90 * time.Second
	}
	if cfg.NextHop == (packet.IPv4Addr{}) {
		cfg.NextHop = packet.IPv4FromUint32(0x0a000000 | cfg.RouterID&0xffffff)
	}
	// In-memory transports carry a handful of small control messages per
	// session — in the committed drills none longer than 48 bytes, never
	// more than 29 bytes buffered — and at cluster scale (four speakers per
	// member, thousands of members) a large reader per speaker is pure
	// waste. 512 bytes holds ten such messages; a longer one (up to the 4 KB
	// limit) is read through it by io.ReadFull.
	bufSize := 1 << 16
	if _, ok := conn.(*MemConn); ok {
		bufSize = 512
	}
	return &Speaker{
		cfg:   cfg,
		conn:  conn,
		br:    bufio.NewReaderSize(conn, bufSize),
		state: StateIdle,
		adjIn: NewRIB(),
		stop:  make(chan struct{}),
	}
}

// State returns the session state.
func (s *Speaker) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Err returns the error that took the session down, if any.
func (s *Speaker) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.downErr
}

// PeerAS returns the AS learned from the peer's OPEN (0 before handshake).
func (s *Speaker) PeerAS() uint16 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerOpen.AS
}

// PeerRouterID returns the peer's router ID (0 before handshake).
func (s *Speaker) PeerRouterID() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerOpen.RouterID
}

// IsIBGP reports whether the session is internal (same AS both sides).
// Valid after the handshake.
func (s *Speaker) IsIBGP() bool { return s.PeerAS() == s.cfg.AS }

// AdjIn returns the Adj-RIB-In (routes learned from this peer).
func (s *Speaker) AdjIn() *RIB { return s.adjIn }

func (s *Speaker) setState(st State) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

func (s *Speaker) send(msg []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	_, err := s.conn.Write(msg)
	return err
}

// readMessage reads one full message, returning its type and body.
func (s *Speaker) readMessage() (uint8, []byte, error) {
	hdr := make([]byte, headerLen)
	if _, err := io.ReadFull(s.br, hdr); err != nil {
		return 0, nil, err
	}
	length, msgType, err := DecodeHeader(hdr)
	if err != nil {
		return 0, nil, err
	}
	body := make([]byte, length-headerLen)
	if _, err := io.ReadFull(s.br, body); err != nil {
		return 0, nil, err
	}
	s.mu.Lock()
	s.lastRecv = time.Now()
	s.mu.Unlock()
	return msgType, body, nil
}

// Handshake performs the OPEN/KEEPALIVE exchange synchronously. Both ends
// must call it concurrently (each side sends first, then reads).
func (s *Speaker) Handshake() error {
	open := Open{Version: bgpVersion, AS: s.cfg.AS,
		HoldTime: uint16(s.cfg.HoldTime / time.Second), RouterID: s.cfg.RouterID}
	if err := s.send(EncodeOpen(open)); err != nil {
		return fmt.Errorf("bgp: send open: %w", err)
	}
	s.setState(StateOpenSent)

	msgType, body, err := s.readMessage()
	if err != nil {
		return fmt.Errorf("bgp: read open: %w", err)
	}
	if msgType != MsgOpen {
		return fmt.Errorf("bgp: expected OPEN, got type %d", msgType)
	}
	peer, err := DecodeOpen(body)
	if err != nil {
		return err
	}
	if s.cfg.PeerAS != 0 && peer.AS != s.cfg.PeerAS {
		notif := Notification{Code: NotifOpenError, Subcode: 2} // bad peer AS
		_ = s.send(EncodeNotification(notif))
		return fmt.Errorf("bgp: peer AS %d, want %d", peer.AS, s.cfg.PeerAS)
	}
	s.mu.Lock()
	s.peerOpen = peer
	s.effHold = s.cfg.HoldTime
	if peerHold := time.Duration(peer.HoldTime) * time.Second; peerHold < s.effHold {
		s.effHold = peerHold
	}
	s.mu.Unlock()

	if err := s.send(EncodeKeepalive()); err != nil {
		return err
	}
	s.setState(StateOpenConfirm)

	msgType, _, err = s.readMessage()
	if err != nil {
		return fmt.Errorf("bgp: read keepalive: %w", err)
	}
	if msgType != MsgKeepalive {
		return fmt.Errorf("bgp: expected KEEPALIVE, got type %d", msgType)
	}
	s.setState(StateEstablished)
	if s.cfg.OnEstablished != nil {
		s.cfg.OnEstablished()
	}
	return nil
}

// Start runs the handshake and then — unless the speaker is Manual — the
// read/keepalive loops in the background. It returns once the session is
// Established (or failed).
func (s *Speaker) Start() error {
	if err := s.Handshake(); err != nil {
		s.teardown(err)
		return err
	}
	if s.cfg.Manual {
		return nil
	}
	s.wg.Add(2)
	go s.readLoop()
	go s.keepaliveLoop()
	return nil
}

// dispatch handles one received message in the established state. It
// returns a non-nil error (after tearing the session down) when the message
// ends the session.
func (s *Speaker) dispatch(msgType uint8, body []byte) error {
	switch msgType {
	case MsgKeepalive:
		// lastRecv already refreshed.
	case MsgUpdate:
		u, err := DecodeUpdate(body)
		if err != nil {
			s.teardown(err)
			return err
		}
		s.applyUpdate(u)
	case MsgNotification:
		n, _ := DecodeNotification(body)
		s.teardown(n)
		return n
	case MsgOpen:
		err := fmt.Errorf("bgp: unexpected OPEN in established state")
		s.teardown(err)
		return err
	}
	return nil
}

func (s *Speaker) readLoop() {
	defer s.wg.Done()
	for {
		msgType, body, err := s.readMessage()
		if err != nil {
			s.teardown(err)
			return
		}
		if s.dispatch(msgType, body) != nil {
			return
		}
	}
}

// Pump synchronously drains every complete message buffered on the
// transport and dispatches it exactly as the background read loop would.
// Only Manual speakers over a buffered in-memory transport may be pumped:
// because the peer writes each encoded message atomically, the buffered
// stream is always a whole number of messages and Pump never blocks.
// Dispatch errors (a NOTIFICATION, a decode failure) tear the session down
// and are returned; a drained session returns nil.
func (s *Speaker) Pump() error {
	ra, ok := s.conn.(interface{ ReadAvailable() int })
	if !ok {
		return fmt.Errorf("bgp: Pump needs a transport with ReadAvailable (MemConn)")
	}
	for {
		if s.State() != StateEstablished {
			return nil
		}
		if s.br.Buffered() == 0 && ra.ReadAvailable() == 0 {
			return nil
		}
		msgType, body, err := s.readMessage()
		if err != nil {
			s.teardown(err)
			return err
		}
		if err := s.dispatch(msgType, body); err != nil {
			return err
		}
	}
}

// SendKeepalive emits one KEEPALIVE. Manual-mode owners call it on their
// own clock in place of the background keepalive loop.
func (s *Speaker) SendKeepalive() error {
	if s.State() != StateEstablished {
		return fmt.Errorf("bgp: keepalive in state %v", s.State())
	}
	return s.send(EncodeKeepalive())
}

func (s *Speaker) applyUpdate(u Update) {
	peerID := s.PeerRouterID()
	for _, p := range u.Withdrawn {
		s.adjIn.Withdraw(p, peerID)
		if s.cfg.OnRoute != nil {
			s.cfg.OnRoute(p.Canonical(), PathAttrs{}, true)
		}
	}
	for _, p := range u.NLRI {
		s.adjIn.Update(Route{Prefix: p, Attrs: u.Attrs, PeerID: peerID})
		if s.cfg.OnRoute != nil {
			s.cfg.OnRoute(p.Canonical(), u.Attrs, false)
		}
	}
}

// HoldTime returns the negotiated hold time (valid after the handshake).
func (s *Speaker) HoldTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.effHold
}

func (s *Speaker) keepaliveLoop() {
	defer s.wg.Done()
	hold := s.HoldTime()
	if hold == 0 {
		// Negotiated hold time 0: no keepalives, no hold timer (RFC 4271).
		return
	}
	interval := hold / 3
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			// Hold timer check.
			s.mu.Lock()
			last := s.lastRecv
			s.mu.Unlock()
			if !last.IsZero() && time.Since(last) > hold {
				_ = s.send(EncodeNotification(Notification{Code: NotifHoldTimerExpired}))
				s.teardown(fmt.Errorf("bgp: hold timer expired"))
				return
			}
			if err := s.send(EncodeKeepalive()); err != nil {
				s.teardown(err)
				return
			}
		}
	}
}

// Announce advertises prefixes. For eBGP sessions the speaker prepends its
// own AS and sets next-hop-self; for iBGP it attaches LOCAL_PREF.
func (s *Speaker) Announce(prefixes []Prefix, viaPath []uint16) error {
	if s.State() != StateEstablished {
		return fmt.Errorf("bgp: announce in state %v", s.State())
	}
	attrs := PathAttrs{Origin: 0, NextHop: s.cfg.NextHop}
	if s.IsIBGP() {
		attrs.ASPath = append(attrs.ASPath, viaPath...)
		attrs.LocalPref = 100
		attrs.HasLP = true
	} else {
		attrs.ASPath = append([]uint16{s.cfg.AS}, viaPath...)
	}
	return s.send(EncodeUpdate(Update{NLRI: prefixes, Attrs: attrs}))
}

// Withdraw retracts prefixes.
func (s *Speaker) Withdraw(prefixes []Prefix) error {
	if s.State() != StateEstablished {
		return fmt.Errorf("bgp: withdraw in state %v", s.State())
	}
	return s.send(EncodeUpdate(Update{Withdrawn: prefixes}))
}

func (s *Speaker) teardown(err error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	wasEstablished := s.state == StateEstablished
	s.state = StateClosed
	s.downErr = err
	s.mu.Unlock()

	close(s.stop)
	_ = s.conn.Close()
	if wasEstablished && s.cfg.OnDown != nil {
		s.cfg.OnDown(err)
	}
}

// Close gracefully ends the session with a CEASE notification.
func (s *Speaker) Close() {
	_ = s.send(EncodeNotification(Notification{Code: NotifCease}))
	s.teardown(nil)
	s.wg.Wait()
}
