// Package cluster builds the paper's experimental environment (Figure 5)
// inside the simulator and exposes the four evaluated systems (Table 3) as
// MPI placements: COMPaS, ETL-O2K, the Local-area Cluster and the Wide-area
// Cluster.
//
// # Calibration
//
// Link and relay constants are chosen so the simulated testbed reproduces
// the paper's Table 2 measurements in shape and magnitude:
//
//   - LAN links model the 100Base-T Ethernet at RWCP: 0.4 ms one-way
//     host-to-host latency and ~6.5 MB/s effective stream bandwidth (the
//     paper measures 0.41 ms and 6.32 MB/s for RWCP-Sun <-> COMPaS direct).
//   - The WAN is the 1.5 Mbps IMnet: 3.5 ms link latency (3.9 ms measured
//     end to end) and 187 KB/s bandwidth.
//   - Each relay server charges ~8 ms of CPU per 4 KiB buffer, reproducing
//     the paper's indirect measurements: ~25 ms latency through the relays
//     (60x direct on the LAN, ~6x on the WAN), an order-of-magnitude
//     bandwidth drop for small messages, and ~0.5 MB/s relay-pipeline
//     throughput so large WAN transfers are IMnet-bound and the proxy
//     overhead becomes negligible, the paper's headline observation.
//
// CPU speed factors are relative to one RWCP-Sun processor (the paper's
// sequential baseline machine): COMPaS Pentium Pro 200 MHz nodes at 0.6,
// the ETL-Sun at 1.0, and ETL-O2K R10000 processors at 1.25.
package cluster

import (
	"fmt"
	"strings"
	"time"

	"nxcluster/internal/firewall"
	"nxcluster/internal/mpi"
	"nxcluster/internal/obs"
	"nxcluster/internal/proxy"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// Host names of the Figure 5 environment.
const (
	RWCPSun   = "rwcp-sun"
	RWCPInner = "rwcp-inner"
	RWCPOuter = "rwcp-outer"
	ETLSun    = "etl-sun"
	ETLO2K    = "etl-o2k"
)

// CompasNode returns the i-th COMPaS node's host name (i in [0,8)).
func CompasNode(i int) string { return fmt.Sprintf("compas%02d", i) }

// CompasNodes is the COMPaS node count.
const CompasNodes = 8

// GridSite returns the i-th extra grid site's name (i in [0,ExtraSites)).
func GridSite(i int) string { return fmt.Sprintf("grid%d", i+1) }

// GridHost returns the i-th extra grid site's compute host: an Origin-class
// SMP like ETL-O2K, reachable over its own IMnet-class WAN link.
func GridHost(i int) string { return GridSite(i) + "-o2k" }

// GridRanks is the per-grid-site rank count GridPlacements assigns.
const GridRanks = 8

// NXPort is the single firewall port opened for the outer->inner relay
// channel.
const NXPort = 7010

// OuterPort is the outer server's control port.
const OuterPort = 7000

// Calibrated network constants (see the package comment).
const (
	// LANHostLatency is the per-link latency of host connections on the
	// site Ethernets.
	LANHostLatency = 150 * time.Microsecond
	// GatewayLatency is the per-link latency of gateway/backbone hops.
	GatewayLatency = 50 * time.Microsecond
	// LANBandwidth is the effective 100Base-T stream bandwidth.
	LANBandwidth = int64(6_500_000)
	// WANLatency is the IMnet link latency.
	WANLatency = 3500 * time.Microsecond
	// WANBandwidth is the 1.5 Mbps IMnet in bytes/second.
	WANBandwidth = int64(187_500)
	// RelayPerBuffer is the calibrated relay processing cost per buffer.
	RelayPerBuffer = 8 * time.Millisecond
	// RelayBufBytes is the relay's read-buffer size.
	RelayBufBytes = 4096
)

// CPU speed factors relative to one RWCP-Sun processor.
const (
	SpeedRWCPSun = 1.0
	SpeedCompas  = 0.6
	SpeedETLSun  = 1.0
	SpeedETLO2K  = 1.25
)

// Options adjust testbed construction.
type Options struct {
	// RelayPerBuffer overrides the calibrated relay cost (0 = calibrated).
	RelayPerBuffer time.Duration
	// RelayBufBytes overrides the relay buffer size (0 = calibrated).
	RelayBufBytes int
	// OpenFirewall opens the RWCP firewall for direct inbound connections,
	// reproducing the paper's "we have temporarily changed the
	// configuration of the firewall" baseline runs.
	OpenFirewall bool
	// Secret, when non-empty, runs the relay daemons with authenticated
	// control channels (the hardened deployment; see proxy/secure.go) and
	// configures every RWCP-site client with the same site secret.
	Secret string
	// Obs, when non-nil, attaches an observability sink to the testbed's
	// network: every layer running on this kernel emits spans, events and
	// metrics into it, stamped with virtual time. Nil (the default) keeps
	// every hot path allocation-free and all results bit-identical.
	Obs *obs.Observer
	// Seed, when nonzero, seeds the kernel's deterministic RNG (backoff
	// jitter and any other randomized decisions draw from it).
	Seed uint64
	// WANLatency overrides the calibrated IMnet link latency (0 =
	// calibrated). Raising it models a longer wide-area path for bulk
	// data-plane studies.
	WANLatency time.Duration
	// WANBandwidth overrides the calibrated IMnet bandwidth in bytes/second
	// (0 = calibrated).
	WANBandwidth int64
	// WANLossRate sets a packet-loss probability on the IMnet link. It has
	// no effect unless FlowModel is also set (the base simnet data plane is
	// lossless).
	WANLossRate float64
	// FlowModel, when non-nil, enables simnet's TCP-Reno congestion model
	// for every connection in the testbed. Leave nil to keep the calibrated
	// paper runs bit-identical.
	FlowModel *simnet.FlowConfig
	// ExtraSites adds that many "grid" sites — each an ETL-O2K-class host
	// on its own WAN spur off the outer server, publicly reachable like
	// ETL — widening the testbed beyond Figure 5. GridPlacements puts
	// GridRanks ranks on each.
	ExtraSites int
}

// Testbed is the simulated Figure 5 environment with proxy daemons running
// on kernel K and network Net.
type Testbed struct {
	K        *sim.Kernel
	Net      *simnet.Network
	Firewall *firewall.Firewall
	Outer    *proxy.OuterServer
	Inner    *proxy.InnerServer
	// ProxyCfg is the client configuration RWCP-site processes use.
	ProxyCfg proxy.Config
	// OuterBoots counts outer-server boots (1 + restarts after host
	// crashes); maintained once EnableRecovery is on.
	OuterBoots int
	opts       Options
}

// buildTopology adds the Figure 5 nodes, links, firewall and flow model to
// n: the RWCP site, the outer server, the IMnet, the ETL site and any extra
// grid sites. It returns the RWCP firewall.
func buildTopology(n *simnet.Network, opts Options) *firewall.Firewall {
	// RWCP site (firewalled): RWCP-Sun, the COMPaS cluster, the inner
	// server, and the gateway.
	n.AddRouter("rwcp-lan", "rwcp")
	n.AddRouter("compas-sw", "rwcp")
	n.AddRouter("rwcp-gw", "rwcp")
	n.AddHost(RWCPSun, simnet.HostConfig{Site: "rwcp", Speed: SpeedRWCPSun, CPUs: 4})
	n.AddHost(RWCPInner, simnet.HostConfig{Site: "rwcp", Speed: 1.0, CPUs: 2})
	for i := 0; i < CompasNodes; i++ {
		n.AddHost(CompasNode(i), simnet.HostConfig{Site: "rwcp", Speed: SpeedCompas, CPUs: 4})
	}
	lan := simnet.LinkConfig{Latency: LANHostLatency, Bandwidth: LANBandwidth}
	bb := simnet.LinkConfig{Latency: GatewayLatency, Bandwidth: LANBandwidth}
	n.Connect(RWCPSun, "rwcp-lan", lan)
	n.Connect(RWCPInner, "rwcp-lan", lan)
	n.Connect("compas-sw", "rwcp-lan", bb)
	for i := 0; i < CompasNodes; i++ {
		n.Connect(CompasNode(i), "compas-sw", lan)
	}
	n.Connect("rwcp-lan", "rwcp-gw", bb)

	// The outer server sits just outside the firewall.
	n.AddHost(RWCPOuter, simnet.HostConfig{Speed: 1.0, CPUs: 2})
	n.Connect("rwcp-gw", RWCPOuter, bb)

	// IMnet to ETL; the paper's ETL hosts are directly reachable.
	n.AddRouter("etl-gw", "etl")
	n.AddRouter("etl-lan", "etl")
	wan := simnet.LinkConfig{Latency: WANLatency, Bandwidth: WANBandwidth, LossRate: opts.WANLossRate}
	if opts.WANLatency > 0 {
		wan.Latency = opts.WANLatency
	}
	if opts.WANBandwidth > 0 {
		wan.Bandwidth = opts.WANBandwidth
	}
	n.Connect(RWCPOuter, "etl-gw", wan)
	n.Connect("etl-gw", "etl-lan", bb)
	n.AddHost(ETLSun, simnet.HostConfig{Site: "etl", Speed: SpeedETLSun, CPUs: 6})
	n.AddHost(ETLO2K, simnet.HostConfig{Site: "etl", Speed: SpeedETLO2K, CPUs: 16})
	n.Connect(ETLSun, "etl-lan", lan)
	n.Connect(ETLO2K, "etl-lan", lan)

	// Extra grid sites: each an O2K-class SMP on its own WAN spur off the
	// outer server, publicly reachable like ETL.
	for i := 0; i < opts.ExtraSites; i++ {
		site := GridSite(i)
		n.AddRouter(site+"-gw", site)
		n.AddRouter(site+"-lan", site)
		n.Connect(RWCPOuter, site+"-gw", wan)
		n.Connect(site+"-gw", site+"-lan", bb)
		n.AddHost(GridHost(i), simnet.HostConfig{Site: site, Speed: SpeedETLO2K, CPUs: 16})
		n.Connect(GridHost(i), site+"-lan", lan)
	}

	// The RWCP firewall: the paper's typical configuration plus the single
	// nxport hole. ETL's public hosts are modeled without a firewall (the
	// paper: "ETL-Sun and ETL-O2K can be accessed directly from RWCP").
	fw := firewall.New("rwcp")
	fw.AllowIncomingPort(NXPort, "nxport: outer->inner relay channel")
	if opts.OpenFirewall {
		fw.AllowIncomingRange(1, 65535, "temporary: direct-communication baseline")
	}
	n.SetFirewall("rwcp", fw)
	if opts.FlowModel != nil {
		n.EnableFlowModel(*opts.FlowModel)
	}
	return fw
}

// NewTestbed builds the Figure 5 environment on a fresh kernel and starts the
// Nexus Proxy daemons.
func NewTestbed(opts Options) *Testbed {
	if opts.RelayPerBuffer == 0 {
		opts.RelayPerBuffer = RelayPerBuffer
	}
	if opts.RelayBufBytes == 0 {
		opts.RelayBufBytes = RelayBufBytes
	}
	k := sim.New()
	if opts.Seed != 0 {
		k.Seed(opts.Seed)
	}
	n := simnet.New(k)
	n.Obs = opts.Obs
	fw := buildTopology(n, opts)
	relay := proxy.RelayConfig{BufBytes: opts.RelayBufBytes, PerBuffer: opts.RelayPerBuffer}
	tb := &Testbed{
		K: k, Net: n, Firewall: fw, opts: opts,
		Inner: proxy.NewInnerServer(relay),
		Outer: proxy.NewOuterServer(transport.JoinAddr(RWCPInner, NXPort), relay),
		ProxyCfg: proxy.Config{
			OuterServer: transport.JoinAddr(RWCPOuter, OuterPort),
			InnerServer: transport.JoinAddr(RWCPInner, NXPort),
			Secret:      opts.Secret,
		},
	}
	tb.Inner.Secret = opts.Secret
	tb.Outer.Secret = opts.Secret
	tb.Node(RWCPInner).SpawnDaemonOn("nxproxy-inner", func(env transport.Env) {
		_ = tb.Inner.Serve(env, NXPort, nil)
	})
	tb.Node(RWCPOuter).SpawnDaemonOn("nxproxy-outer", func(env transport.Env) {
		_ = tb.Outer.Serve(env, OuterPort, nil)
	})
	return tb
}

// Run drives the kernel's event loop to completion.
func (tb *Testbed) Run() error { return tb.K.Run() }

// Shutdown releases the testbed's kernel; call it once the run is done
// (typically deferred right after NewTestbed).
func (tb *Testbed) Shutdown() { tb.K.Shutdown() }

// RWCPSideNodes lists every node on the RWCP side of the wide-area IMnet
// link — the firewalled site plus the outer server. With ETLSideNodes it
// forms the natural group pair for FaultPlan.Partition: severing the two
// cuts ETL off from the rest of the testbed.
func RWCPSideNodes() []string {
	out := []string{"rwcp-lan", "compas-sw", "rwcp-gw", RWCPSun, RWCPInner, RWCPOuter}
	for i := 0; i < CompasNodes; i++ {
		out = append(out, CompasNode(i))
	}
	return out
}

// ETLSideNodes lists every node on the ETL side of the IMnet link.
func ETLSideNodes() []string {
	return []string{"etl-gw", "etl-lan", ETLSun, ETLO2K}
}

// Node returns a named node of the testbed network.
func (tb *Testbed) Node(name string) *simnet.Node { return tb.Net.Node(name) }

// ApplyPlan schedules a fault plan on the testbed network.
func (tb *Testbed) ApplyPlan(p *simnet.FaultPlan) error { return tb.Net.ApplyPlan(p) }

// EnableRecovery arms the testbed's fault-tolerance plumbing: the inner
// server keeps a registered keepalive session with the outer server
// (re-dialing with backoff when the boundary flaps or the outer host
// restarts), and both relay daemons get OnRestart boot scripts so
// Network.RestartHost brings them back. Call it right after NewTestbed,
// before driving the kernel. ka.OuterAddr defaults to the testbed's outer
// control address.
//
// With recovery on, the registration keepalive ticks forever — drive the
// kernel with RunUntil, not Run.
func (tb *Testbed) EnableRecovery(ka proxy.KeepaliveConfig) {
	if ka.OuterAddr == "" {
		ka.OuterAddr = tb.ProxyCfg.OuterServer
	}
	relay := proxy.RelayConfig{BufBytes: tb.opts.RelayBufBytes, PerBuffer: tb.opts.RelayPerBuffer}
	tb.OuterBoots = 1
	tb.Net.Node(RWCPInner).SpawnDaemonOn("nxproxy-inner-register", func(env transport.Env) {
		env.Sleep(time.Millisecond) // after Serve binds the nxport
		tb.Inner.MaintainRegistration(env, ka)
	})
	tb.Net.Node(RWCPOuter).OnRestart("nxproxy-outer", func(env transport.Env) {
		o := proxy.NewOuterServer(transport.JoinAddr(RWCPInner, NXPort), relay)
		o.Secret = tb.opts.Secret
		tb.Outer = o
		tb.OuterBoots++
		_ = o.Serve(env, OuterPort, nil)
	})
	tb.Net.Node(RWCPInner).OnRestart("nxproxy-inner", func(env transport.Env) {
		in := proxy.NewInnerServer(relay)
		in.Secret = tb.opts.Secret
		tb.Inner = in
		env.SpawnService("nxproxy-inner-register", func(e transport.Env) {
			e.Sleep(time.Millisecond)
			in.MaintainRegistration(e, ka)
		})
		_ = in.Serve(env, NXPort, nil)
	})
}

// Host returns a named node (an alias for Node).
func (tb *Testbed) Host(name string) *simnet.Node { return tb.Node(name) }

// Dialer returns a proxy-aware dialer configured for RWCP-site processes.
func (tb *Testbed) Dialer() proxy.Dialer { return proxy.Dialer{Cfg: tb.ProxyCfg} }

// System identifies one of the paper's Table 3 configurations.
type System int

// The four evaluated systems.
const (
	// SystemCompas: 8 processors, one per COMPaS node (mpich ch_p4).
	SystemCompas System = iota
	// SystemETLO2K: 8 processors on the Origin 2000 (vendor MPI).
	SystemETLO2K
	// SystemLocal: RWCP-Sun + COMPaS, 12 processors (MPICH-G + proxy).
	SystemLocal
	// SystemWide: RWCP-Sun + COMPaS + ETL-O2K, 20 processors (MPICH-G +
	// proxy unless disabled).
	SystemWide
)

// String names the system as the paper does.
func (s System) String() string {
	switch s {
	case SystemCompas:
		return "COMPaS"
	case SystemETLO2K:
		return "ETL-O2K"
	case SystemLocal:
		return "Local-area Cluster"
	default:
		return "Wide-area Cluster"
	}
}

// Describe returns the Table 3 description.
func (s System) Describe() string {
	switch s {
	case SystemCompas:
		return "8 processors, 1 processor on each node. mpich ch_p4 device is used."
	case SystemETLO2K:
		return "8 processors on ETL-O2K. vendor provided mpi is used."
	case SystemLocal:
		return "RWCP-Sun + COMPaS. total 12 processors, 4 on RWCP-Sun, and 8 on COMPaS. mpich Globus device which utilizes the Nexus Proxy is used."
	default:
		return "RWCP-Sun + COMPaS + ETL-O2K. total 20 processors, 4 on RWCP-Sun, 8 on COMPaS, and 8 on ETL-O2K. mpich Globus device which utilizes the Nexus Proxy is used."
	}
}

// Processors returns the system's processor count.
func (s System) Processors() int {
	switch s {
	case SystemCompas, SystemETLO2K:
		return 8
	case SystemLocal:
		return 12
	default:
		return 20
	}
}

// Placements builds the MPI rank placements for a system. useProxy selects
// whether RWCP-site ranks communicate through the Nexus Proxy (the paper
// ran the wide-area system both ways; systems whose ranks never cross the
// firewall ignore it). Rank 0 — the knapsack master — is placed on RWCP-Sun
// for the Globus-device systems, matching the paper's setup, and on the
// system's own first processor otherwise.
func (tb *Testbed) Placements(s System, useProxy bool) []mpi.Placement {
	cfg := proxy.Config{}
	if useProxy {
		cfg = tb.ProxyCfg
	}
	var pls []mpi.Placement
	add := func(host string, proxied bool, n int) {
		pc := proxy.Config{}
		if proxied {
			pc = cfg
		}
		for i := 0; i < n; i++ {
			pls = append(pls, mpi.Placement{
				Name:  host,
				Spawn: tb.Node(host).SpawnOn,
				Proxy: pc,
			})
		}
	}
	switch s {
	case SystemCompas:
		for i := 0; i < CompasNodes; i++ {
			add(CompasNode(i), false, 1)
		}
	case SystemETLO2K:
		add(ETLO2K, false, 8)
	case SystemLocal:
		add(RWCPSun, useProxy, 4)
		for i := 0; i < CompasNodes; i++ {
			add(CompasNode(i), useProxy, 1)
		}
	default: // SystemWide
		add(RWCPSun, useProxy, 4)
		for i := 0; i < CompasNodes; i++ {
			add(CompasNode(i), useProxy, 1)
		}
		add(ETLO2K, false, 8)
	}
	return pls
}

// GridPlacements extends the wide-area system across every extra grid site:
// the Table 3 wide-area placements plus GridRanks ranks on each grid host
// (publicly reachable like ETL, so never proxied).
func (tb *Testbed) GridPlacements(useProxy bool) []mpi.Placement {
	pls := tb.Placements(SystemWide, useProxy)
	for i := 0; i < tb.opts.ExtraSites; i++ {
		host := GridHost(i)
		for r := 0; r < GridRanks; r++ {
			pls = append(pls, mpi.Placement{Name: host, Spawn: tb.Node(host).SpawnOn})
		}
	}
	return pls
}

// SequentialPlacement returns the paper's baseline: one process on RWCP-Sun.
func (tb *Testbed) SequentialPlacement() []mpi.Placement {
	return []mpi.Placement{{Name: RWCPSun, Spawn: tb.Node(RWCPSun).SpawnOn}}
}

// Topology renders the Figure 1/Figure 5 environment as ASCII.
func (tb *Testbed) Topology() string {
	var b strings.Builder
	fmt.Fprintln(&b, "RWCP site (behind deny-based firewall)          ETL site")
	fmt.Fprintln(&b, "  rwcp-sun (E450, 4 CPU)                          etl-sun (E450, 6 CPU)")
	fmt.Fprintln(&b, "  compas00..07 (Pentium Pro SMP x8, 100Base-T)    etl-o2k (Origin 2000, 16 CPU)")
	fmt.Fprintln(&b, "  rwcp-inner (inner Nexus Proxy server)               |")
	fmt.Fprintln(&b, "      |                                               |")
	fmt.Fprintln(&b, "  [rwcp-gw FIREWALL: deny-in/allow-out, nxport open]  |")
	fmt.Fprintln(&b, "      |                                               |")
	fmt.Fprintln(&b, "  rwcp-outer (outer Nexus Proxy server)               |")
	fmt.Fprintln(&b, "      +------------- IMnet 1.5 Mbps -----------------+")
	fmt.Fprintf(&b, "\n%s", tb.Firewall.Describe())
	return b.String()
}
