package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

const (
	pingBytes = 64
	bulkBytes = 1 << 20
)

// relayRig is one outer/inner relay pair and an echo server, all in this
// process on loopback sockets.
type relayRig struct {
	env   *transport.TCPEnv
	inner *proxy.InnerServer
	outer *proxy.OuterServer
	echo  transport.Listener
	cfg   proxy.Config
	wg    sync.WaitGroup
}

// serve runs a relay daemon's Serve loop on its own goroutine and returns
// the address it bound.
func (g *relayRig) serve(run func(ready func(string)) error) (string, error) {
	ready := make(chan string, 1)
	failed := make(chan error, 1)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := run(func(a string) { ready <- a }); err != nil {
			failed <- err
		}
	}()
	select {
	case a := <-ready:
		return a, nil
	case err := <-failed:
		return "", err
	}
}

func startRig() (*relayRig, error) {
	env := transport.NewTCPEnv("localhost")
	g := &relayRig{env: env, inner: proxy.NewInnerServer(proxy.RelayConfig{})}
	innerAddr, err := g.serve(func(ready func(string)) error { return g.inner.Serve(env, 0, ready) })
	if err != nil {
		return nil, err
	}
	g.outer = proxy.NewOuterServer(innerAddr, proxy.RelayConfig{})
	outerAddr, err := g.serve(func(ready func(string)) error { return g.outer.Serve(env, 0, ready) })
	if err != nil {
		g.inner.Close(env)
		g.wg.Wait()
		return nil, err
	}
	g.cfg = proxy.Config{OuterServer: outerAddr, InnerServer: innerAddr}
	if g.echo, err = env.Listen(0); err != nil {
		g.close()
		return nil, err
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for {
			c, err := g.echo.Accept(env)
			if err != nil {
				return
			}
			g.wg.Add(1)
			go func() {
				defer g.wg.Done()
				echoConn(env, c)
			}()
		}
	}()
	return g, nil
}

// close stops the servers and waits for the goroutines the rig started.
// Relay pumps end on their own once both legs of a stream are closed.
func (g *relayRig) close() {
	g.outer.Close(g.env)
	g.inner.Close(g.env)
	if g.echo != nil {
		_ = g.echo.Close(g.env)
	}
	g.wg.Wait()
}

// relayBytes is the payload both relay daemons report having pumped.
func (g *relayRig) relayBytes() int64 {
	return g.outer.Stats().Bytes + g.inner.Stats().Bytes
}

// echoConn writes back everything it reads until the peer closes.
func echoConn(env transport.Env, c transport.Conn) {
	buf := make([]byte, 32<<10)
	for {
		n, err := c.Read(env, buf)
		if n > 0 {
			if _, werr := c.Write(env, buf[:n]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	_ = c.Close(env)
}

// relayStats accumulates one relay-tcp measurement. Times are seconds.
type relayStats struct {
	// rounds holds each round's passive-chain figures; the end-to-end
	// metrics are medians over the quieter half of them.
	rounds                  []relayRound
	setups                  []float64
	passiveRTT, directRTT   []float64
	passiveBulk, directBulk []float64
	connects, bindAccepts   []float64
	// relayed and expected are the bytes the daemons pumped and the bytes
	// they should have: passive payload once per relay hop (outer and
	// inner), active payload once (outer only).
	relayed, expected int64
	attempted, failed int64
}

// relayRound is one round's passive-chain RTT percentiles and bulk rate,
// and the share of the round's wall time the hypervisor stole.
type relayRound struct{ p50, p90, p99, bulkPerSec, steal float64 }

// quietRounds returns the half of the rounds (rounded up) that lost the
// least time to steal. Steal cannot be subtracted from a 50 us round trip
// the way stopwatch does for longer units, so rounds that a neighbour's
// burst hit are dropped instead.
func quietRounds(rounds []relayRound) []relayRound {
	s := append([]relayRound(nil), rounds...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].steal < s[j].steal })
	return s[:(len(s)+1)/2]
}

// exchanger does the checked ping-pong and bulk echoes over one stream.
type exchanger struct {
	r    *run
	env  transport.Env
	rng  *rand.Rand
	bulk []byte
	ping [pingBytes]byte
	back []byte
	st   *relayStats
	// markHeap asks the next session to sample the live heap mid-session.
	markHeap bool
}

// pings sends n seeded 64-byte messages and checks each echo byte for
// byte; rtts receives each round-trip time.
func (x *exchanger) pings(c transport.Conn, n int, rtts *[]float64) error {
	tr := x.r.tr
	in := transport.Stream{Env: x.env, Conn: c}
	for i := 0; i < n; i++ {
		x.rng.Read(x.ping[:])
		x.st.attempted++
		t0 := time.Now()
		s := tr.begin("transport.Write")
		_, err := c.Write(x.env, x.ping[:])
		tr.end(s)
		if err == nil {
			s = tr.begin("transport.Read")
			_, err = io.ReadFull(in, x.back[:pingBytes])
			tr.end(s)
		}
		if err != nil {
			x.st.failed++
			return fmt.Errorf("ping %d: %w", i, err)
		}
		*rtts = append(*rtts, secondsSince(t0))
		if err := checkEcho(x.ping[:], x.back[:pingBytes]); err != nil {
			x.st.failed++
			return err
		}
	}
	return nil
}

// bulkEcho streams the seeded 1 MiB payload n times, reading each echo
// back while it is still being written.
func (x *exchanger) bulkEcho(c transport.Conn, n int, secs *[]float64) error {
	in := transport.Stream{Env: x.env, Conn: c}
	for i := 0; i < n; i++ {
		x.st.attempted++
		t0 := time.Now()
		s := x.r.tr.begin("relay.bulkEcho")
		werr := make(chan error, 1)
		go func() {
			_, err := c.Write(x.env, x.bulk)
			werr <- err
		}()
		_, err := io.ReadFull(in, x.back)
		if err != nil {
			// Unblock the writer before waiting for it.
			_ = transport.Abort(x.env, c)
		}
		if e := <-werr; err == nil {
			err = e
		}
		x.r.tr.end(s)
		if err != nil {
			x.st.failed++
			return fmt.Errorf("bulk %d: %w", i, err)
		}
		*secs = append(*secs, secondsSince(t0))
		if err := checkEcho(x.bulk, x.back); err != nil {
			x.st.failed++
			return err
		}
	}
	return nil
}

// checkEcho reports the first byte where an echo differs from what was sent.
func checkEcho(sent, got []byte) error {
	if bytes.Equal(sent, got) {
		return nil
	}
	if len(sent) != len(got) {
		return fmt.Errorf("echo: sent %d bytes, got %d", len(sent), len(got))
	}
	for i := range sent {
		if sent[i] != got[i] {
			return fmt.Errorf("echo: byte %d of %d came back %#02x, sent %#02x", i, len(sent), got[i], sent[i])
		}
	}
	return nil
}

// checkRelayBytes requires the relays to have pumped exactly the payload:
// no byte lost, duplicated or injected.
func checkRelayBytes(relayed, expected int64) error {
	if relayed != expected {
		return fmt.Errorf("proxy: relays pumped %d bytes, payload x hops is %d", relayed, expected)
	}
	return nil
}

// session is one client session on a running rig: a passive open through
// outer and inner (paper Figure 4), an active open to the echo server
// (Figure 3), pings and bulk echoes over the passive chain, and the same
// exchange over a direct connection as the floor. It returns the time the
// two opens took.
func (x *exchanger) session(g *relayRig, pings, bulks int) (float64, error) {
	tr := x.r.tr
	env, st := x.env, x.st
	sess := tr.begin("relay.session")
	defer tr.end(sess)

	// Passive open: bind, a peer dials the public address, accept.
	st.attempted++
	t0 := time.Now()
	s := tr.begin("proxy.NXProxyBind")
	l, err := proxy.NXProxyBind(env, g.cfg)
	tr.end(s)
	if err != nil {
		st.failed++
		return 0, err
	}
	defer l.Close(env)
	s = tr.begin("transport.Dial")
	peer, err := env.Dial(l.Addr())
	tr.end(s)
	if err != nil {
		st.failed++
		return 0, err
	}
	s = tr.begin("proxy.ProxyListener.Accept")
	client, err := l.Accept(env)
	tr.end(s)
	if err != nil {
		_ = peer.Close(env)
		st.failed++
		return 0, err
	}
	bindAccept := secondsSince(t0)
	st.bindAccepts = append(st.bindAccepts, bindAccept)
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		echoConn(env, client)
	}()

	// Active open to the echo server, checked with one ping.
	st.attempted++
	t1 := time.Now()
	s = tr.begin("proxy.NXProxyConnect")
	active, err := proxy.NXProxyConnect(env, g.cfg, g.echo.Addr())
	tr.end(s)
	if err != nil {
		st.failed++
		_ = peer.Close(env)
		<-echoed
		return 0, err
	}
	connect := secondsSince(t1)
	st.connects = append(st.connects, connect)
	var activeRTT []float64
	err = x.pings(active, 1, &activeRTT)
	_ = active.Close(env)
	st.expected += 2 * pingBytes * int64(len(activeRTT))

	if err == nil {
		s = tr.begin("relay.passive")
		n0 := len(st.passiveRTT)
		err = x.pings(peer, pings, &st.passiveRTT)
		st.expected += 2 * 2 * pingBytes * int64(len(st.passiveRTT)-n0)
		if err == nil {
			b0 := len(st.passiveBulk)
			err = x.bulkEcho(peer, bulks, &st.passiveBulk)
			st.expected += 2 * 2 * bulkBytes * int64(len(st.passiveBulk)-b0)
		}
		tr.end(s)
	}
	if err == nil && x.markHeap {
		// Every stream of the session is open here: the relay's peak.
		x.r.heap.mark()
		x.markHeap = false
	}
	_ = peer.Close(env)
	<-echoed
	if err != nil {
		return 0, fmt.Errorf("passive chain: %w", err)
	}

	// The same exchange without the relays.
	st.attempted++
	s = tr.begin("transport.Dial")
	direct, err := env.Dial(g.echo.Addr())
	tr.end(s)
	if err != nil {
		st.failed++
		return 0, err
	}
	s = tr.begin("relay.direct")
	err = x.pings(direct, pings, &st.directRTT)
	if err == nil {
		err = x.bulkEcho(direct, bulks, &st.directBulk)
	}
	tr.end(s)
	_ = direct.Close(env)
	if err != nil {
		return 0, fmt.Errorf("direct: %w", err)
	}
	return bindAccept + connect, nil
}

// measureRelay runs rounds of relay sessions for about budget. Each round
// starts fresh servers (its set-up time covers that and the first session's
// opens), runs sessions until its share of the budget is spent, closes
// everything, and then requires every goroutine and descriptor it opened
// to be gone.
//
// It runs on one P, restored when it returns: the client, both relays and
// the echo server then hand each message along on one thread, so a round
// trip costs the program's own syscalls and goroutine switches and not a
// wake-up on the other CPU, whose timing follows the host's load.
func measureRelay(r *run, rounds int, budget time.Duration, pings, bulks int) (*relayStats, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st := &relayStats{}
	rng := rand.New(rand.NewSource(r.seed))
	x := &exchanger{r: r, rng: rng, bulk: make([]byte, bulkBytes), back: make([]byte, bulkBytes), st: st}
	rng.Read(x.bulk)

	// The first listener sets up the runtime's network poller, which holds
	// its descriptors for the life of the process; do that before counting.
	warm, err := transport.NewTCPEnv("localhost").Listen(0)
	if err != nil {
		return nil, err
	}
	_ = warm.Close(nil)

	for round := 0; round < rounds; round++ {
		// Rounds are alike, and later ones also hold the benchmark's own
		// growing sample slices, so the heap is marked in the first.
		x.markHeap = round == 0
		runtime.GC()
		deadline := time.Now().Add(budget / time.Duration(rounds))
		base := countResources()
		t0 := time.Now()
		s := r.tr.begin("relay.start")
		g, err := startRig()
		r.tr.end(s)
		if err != nil {
			return nil, fmt.Errorf("starting relays: %w", err)
		}
		start := secondsSince(t0)
		x.env = g.env
		roundStart, stolen0 := time.Now(), stolenSeconds()
		rtt0, bulk0 := len(st.passiveRTT), len(st.passiveBulk)
		before := g.relayBytes()
		expected0 := st.expected
		var roundErr error
		for i := 0; i == 0 || time.Now().Before(deadline); i++ {
			opens, err := x.session(g, pings, bulks)
			if err != nil {
				roundErr = err
				break
			}
			if i == 0 {
				st.setups = append(st.setups, start+opens)
			}
		}
		if rtts, bulks := st.passiveRTT[rtt0:], st.passiveBulk[bulk0:]; len(rtts) > 0 && len(bulks) > 0 {
			st.rounds = append(st.rounds, relayRound{
				p50: percentile(rtts, 50), p90: percentile(rtts, 90), p99: percentile(rtts, 99),
				bulkPerSec: float64(len(bulks)) / sum(bulks),
				steal:      (stolenSeconds() - stolen0) / secondsSince(roundStart),
			})
		}
		s = r.tr.begin("relay.close")
		g.close()
		r.tr.end(s)
		r.check(roundErr)
		r.check(checkNoLeak(base, 3*time.Second))
		relayed := g.relayBytes() - before
		st.relayed += relayed
		if roundErr == nil {
			r.check(checkRelayBytes(relayed, st.expected-expected0))
		}
	}
	return st, nil
}

// runRelay is the relay-tcp workload.
func runRelay(r *run) error {
	st, err := measureRelay(r, r.sc.relayRounds, r.budget, r.sc.relayPings, r.sc.relayBulks)
	if err != nil {
		return err
	}
	r.attempted += st.attempted
	r.failed += st.failed
	if len(st.rounds) == 0 || len(st.setups) == 0 {
		return errors.New("relay-tcp: no exchange completed")
	}
	var p50s, p90s, p99s, rates []float64
	for _, rd := range quietRounds(st.rounds) {
		p50s, p90s, p99s = append(p50s, rd.p50), append(p90s, rd.p90), append(p99s, rd.p99)
		rates = append(rates, rd.bulkPerSec)
	}
	r.set("setup_s", median(st.setups), "s")
	r.set("op_p50_ms", median(p50s)*1e3, "ms")
	r.set("op_tail_ms", median(p90s)*1e3, "ms")
	r.set("ops_per_s", median(rates), "1/s")
	setRelayLayers(r, st)
	r.logf("relay-tcp: GOMAXPROCS 1, %d rounds (medians over the %d with least steal), %d passive pings (p50 %.1f us, p90 %.1f us, p99 %.1f us), %d bulk echoes at %.1f MiB/s, %d direct pings (p50 %.1f us)",
		len(st.rounds), len(p50s), len(st.passiveRTT), median(p50s)*1e6, median(p90s)*1e6, median(p99s)*1e6,
		len(st.passiveBulk), median(rates), len(st.directRTT), percentile(st.directRTT, 50)*1e6)
	return nil
}

// setRelayLayers records the transport and proxy layer metrics.
func setRelayLayers(r *run, st *relayStats) {
	directSecs := sum(st.directBulk)
	direct50 := percentile(st.directRTT, 50)
	r.set("transport.rtt_p50_us", direct50*1e6, "us")
	if directSecs > 0 {
		r.set("transport.bulk_mb_per_s", float64(len(st.directBulk))*bulkBytes/1e6/directSecs, "MB/s")
	}
	r.set("proxy.added_rtt_us", (percentile(st.passiveRTT, 50)-direct50)*1e6, "us")
	var p99s []float64
	for _, rd := range quietRounds(st.rounds) {
		p99s = append(p99s, rd.p99)
	}
	r.set("proxy.rtt_p99_us", median(p99s)*1e6, "us")
	if st.expected > 0 {
		r.set("proxy.bytes_ratio", float64(st.relayed)/float64(st.expected), "ratio")
	}
	r.set("proxy.connect_us", median(st.connects)*1e6, "us")
	r.set("proxy.bind_accept_us", median(st.bindAccepts)*1e6, "us")
}
