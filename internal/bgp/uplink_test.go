package bgp

import (
	"testing"

	"albatross/internal/sim"
)

// newTestFabric starts a default-timing session on a fresh engine and
// attaches a proxy fabric to it.
func newTestFabric(t *testing.T, member int) (*sim.Engine, *Switch, *SimSession, *ProxiedSession) {
	t.Helper()
	eng := sim.NewEngine()
	sw := NewSwitch(65000, 0xFFFF0001)
	sw.Manual = true
	session, err := NewSimSession(eng, SimSessionConfig{})
	if err != nil {
		t.Fatalf("NewSimSession: %v", err)
	}
	ps, err := NewProxiedSession(sw, session, ProxiedSessionConfig{Member: member})
	if err != nil {
		t.Fatalf("NewProxiedSession: %v", err)
	}
	return eng, sw, session, ps
}

// Attaching the fabric must not perturb the session it observes: the same
// flap schedule on a bare and a fabric-attached SimSession yields identical
// externally visible state at every sample point and identical stats.
func TestProxiedSessionMatchesSimSessionTiming(t *testing.T) {
	engBare := sim.NewEngine()
	bare, err := NewSimSession(engBare, SimSessionConfig{})
	if err != nil {
		t.Fatalf("NewSimSession: %v", err)
	}
	engFab, _, observed, ps := newTestFabric(t, 0)

	// An absorbed blip, a detected outage, overlapping flaps.
	schedule := []struct {
		at sim.Duration
		d  sim.Duration
	}{
		{100 * sim.Millisecond, 80 * sim.Millisecond}, // absorbed
		{1 * sim.Second, 400 * sim.Millisecond},       // detected
		{4 * sim.Second, 200 * sim.Millisecond},
		{4100 * sim.Millisecond, 300 * sim.Millisecond}, // overlap extends
	}
	for _, f := range schedule {
		f := f
		engBare.At(sim.Time(f.at), func() { bare.InjectFlap(f.d) })
		engFab.At(sim.Time(f.at), func() { observed.InjectFlap(f.d) })
	}

	for at := sim.Time(0); at <= sim.Time(8*sim.Second); at = at.Add(25 * sim.Millisecond) {
		engBare.RunUntil(at)
		engFab.RunUntil(at)
		if bare.RouteUp() != observed.RouteUp() || bare.bfdUp != observed.bfdUp || bare.LinkUp() != observed.LinkUp() {
			t.Fatalf("state diverged at %v: bare(route=%v bfd=%v link=%v) observed(route=%v bfd=%v link=%v)",
				at, bare.RouteUp(), bare.bfdUp, bare.LinkUp(), observed.RouteUp(), observed.bfdUp, observed.LinkUp())
		}
		if bare.NextTransition() != observed.NextTransition() {
			t.Fatalf("lookahead diverged at %v: bare=%v observed=%v", at, bare.NextTransition(), observed.NextTransition())
		}
	}
	if bare.Stats() != observed.Stats() {
		t.Fatalf("stats diverged:\n  bare     %+v\n  observed %+v", bare.Stats(), observed.Stats())
	}
	if ps.Desyncs != 0 {
		t.Fatalf("fabric desyncs: %d", ps.Desyncs)
	}
}

// Detection latency with the fabric attached must respect SimSession's
// bounds: at least DetectMult probe intervals, at most the detection window
// (one extra interval of grid quantization).
func TestProxiedSessionDetectionWindowBounds(t *testing.T) {
	eng, sw, session, ps := newTestFabric(t, 3)

	// Well under the window: absorbed, never leaves the RIB. (Off-grid
	// start so grid quantization can't stretch it into a detection.)
	eng.At(sim.Time(110*sim.Millisecond), func() { session.InjectFlap(80 * sim.Millisecond) })
	eng.RunUntil(sim.Time(500 * sim.Millisecond))
	if st := session.Stats(); st.Absorbed != 1 || st.Detections != 0 {
		t.Fatalf("short flap: %+v", st)
	}
	if sw.RIB().PathCount(ps.prefix) != 1 {
		t.Fatalf("short flap disturbed the RIB")
	}

	// Longer than the window: detected within bounds. Missed-probe counting
	// runs from the last received probe, which can precede the flap by up
	// to one interval — so latency from flap start spans
	// [(DetectMult−1)×Tx, (DetectMult+1)×Tx].
	eng.At(sim.Time(1010*sim.Millisecond), func() { session.InjectFlap(400 * sim.Millisecond) })
	eng.RunUntil(sim.Time(3 * sim.Second))
	st := session.Stats()
	if st.Detections != 1 {
		t.Fatalf("long flap not detected: %+v", st)
	}
	lo := sim.Duration(2) * 50 * sim.Millisecond
	if st.LastDetectNS < lo || st.LastDetectNS > session.DetectionWindow() {
		t.Fatalf("detection latency %v outside [%v, %v]", st.LastDetectNS, lo, session.DetectionWindow())
	}
}

// Every BFD transition must be mirrored into the switch RIB via real UPDATE
// messages, and admin drains must withdraw through the fabric while leaving
// the BFD eligibility view untouched.
func TestProxiedSessionMirrorsSwitchRIB(t *testing.T) {
	eng, sw, session, ps := newTestFabric(t, 1)
	pfx := ps.prefix
	if sw.RIB().PathCount(pfx) != 1 {
		t.Fatalf("initial advertisement missing from RIB")
	}
	if got := sw.PeerCount(); got != 1 {
		t.Fatalf("switch peers = %d, want 1 (proxied)", got)
	}

	session.InjectFlap(400 * sim.Millisecond)
	eng.RunUntil(sim.Time(300 * sim.Millisecond)) // past the 200ms detection window
	if session.RouteUp() || sw.RIB().PathCount(pfx) != 0 {
		t.Fatalf("detection not mirrored: routeUp=%v paths=%d", session.RouteUp(), sw.RIB().PathCount(pfx))
	}
	eng.RunUntil(sim.Time(2 * sim.Second)) // link back + 1s re-establish delay
	if !session.RouteUp() || sw.RIB().PathCount(pfx) != 1 {
		t.Fatalf("recovery not mirrored: routeUp=%v paths=%d", session.RouteUp(), sw.RIB().PathCount(pfx))
	}

	ps.SetAdmin(false)
	if sw.RIB().PathCount(pfx) != 0 {
		t.Fatalf("admin drain not withdrawn from RIB")
	}
	if !session.RouteUp() {
		t.Fatalf("admin drain must not touch the BFD eligibility view")
	}
	if !session.bfdUp {
		t.Fatalf("admin drain must not touch BFD")
	}
	ps.SetAdmin(true)
	if sw.RIB().PathCount(pfx) != 1 {
		t.Fatalf("admin restore not re-advertised")
	}
	if ps.AdminWithdraws != 1 || ps.AdminRestores != 1 || ps.Desyncs != 0 {
		t.Fatalf("counters: %+v %+v %+v", ps.AdminWithdraws, ps.AdminRestores, ps.Desyncs)
	}

	// Keepalives flow on the virtual clock without disturbing anything.
	eng.RunUntil(sim.Time(120 * sim.Second))
	if sw.RIB().PathCount(pfx) != 1 || ps.Desyncs != 0 {
		t.Fatalf("keepalive cadence disturbed state: paths=%d desyncs=%d",
			sw.RIB().PathCount(pfx), ps.Desyncs)
	}
}

// The proxy refcounts multi-pod advertisements of the same VIP: the
// upstream withdraw happens only when the last pod withdraws (paper §5).
func TestProxiedSessionMultiPodRefcount(t *testing.T) {
	_, sw, _, ps := newTestFabric(t, 2)
	pfx := ps.prefix

	// A second GW pod peers with the same proxy and announces the same VIP.
	c1, c2 := NewMemPipe()
	ch := make(chan sessionResult, 1)
	go func() {
		sp, err := ps.proxy.ServePod(c1)
		ch <- sessionResult{sp, err}
	}()
	pod2 := NewSpeaker(c2, SpeakerConfig{AS: 64512, RouterID: 0x90000002, PeerAS: 64512, Manual: true})
	if err := pod2.Start(); err != nil {
		t.Fatalf("pod2 start: %v", err)
	}
	res := <-ch
	if res.err != nil {
		t.Fatalf("ServePod: %v", res.err)
	}
	if err := pod2.Announce([]Prefix{pfx}, nil); err != nil {
		t.Fatalf("pod2 announce: %v", err)
	}
	_ = res.sp.Pump()
	ps.pump()

	before := ps.proxy.Withdrawn
	// Primary pod withdraws: refcount drops 2→1, upstream must NOT withdraw.
	if err := ps.pod.Withdraw([]Prefix{pfx}); err != nil {
		t.Fatalf("withdraw: %v", err)
	}
	ps.pump()
	if sw.RIB().PathCount(pfx) != 1 {
		t.Fatalf("upstream withdrew with a pod still advertising")
	}
	if ps.proxy.Withdrawn != before {
		t.Fatalf("upstream withdraw count moved: %d → %d", before, ps.proxy.Withdrawn)
	}

	// Last pod withdraws: now the upstream withdraw goes out.
	if err := pod2.Withdraw([]Prefix{pfx}); err != nil {
		t.Fatalf("pod2 withdraw: %v", err)
	}
	_ = res.sp.Pump()
	ps.pump()
	if sw.RIB().PathCount(pfx) != 0 {
		t.Fatalf("last-pod withdraw not propagated")
	}
	if ps.proxy.Withdrawn != before+1 {
		t.Fatalf("upstream withdraws = %d, want %d", ps.proxy.Withdrawn, before+1)
	}
}
