package simnet

import (
	"testing"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

// pingPongKernel builds a two-host network with a perpetual 4 KiB echo
// stream and steps it past connection setup, so subsequent steps exercise
// only the steady-state data plane: serialization, propagation, delivery,
// wakeup.
func pingPongKernel(t *testing.T) *sim.Kernel {
	t.Helper()
	k := sim.New()
	n := New(k)
	n.AddHost("a", HostConfig{})
	n.AddHost("b", HostConfig{})
	n.Connect("a", "b", LinkConfig{Latency: time.Millisecond, Bandwidth: 100 << 20})
	n.Node("b").SpawnDaemonOn("echo", func(env transport.Env) {
		l, err := env.Listen(1)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			nn, err := c.Read(env, buf)
			if err != nil {
				return
			}
			if _, err := c.Write(env, buf[:nn]); err != nil {
				return
			}
		}
	})
	n.Node("a").SpawnDaemonOn("src", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		c, err := env.Dial("b:1")
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		for {
			if _, err := c.Write(env, buf); err != nil {
				return
			}
			total := 0
			for total < len(buf) {
				nn, err := c.Read(env, buf[total:])
				if err != nil {
					return
				}
				total += nn
			}
		}
	})
	for i := 0; i < 20000; i++ { // handshake + segment/transfer pool warmup
		k.Step()
	}
	return k
}

// TestDeliveryZeroAlloc pins the simnet data-plane contract with no
// observer attached (Network.Obs nil, the default): steady-state message
// delivery is allocation-free. Instrumentation sites must stay behind nil
// guards so the disabled path never constructs field slices.
func TestDeliveryZeroAlloc(t *testing.T) {
	k := pingPongKernel(t)
	defer k.Shutdown()
	if avg := testing.AllocsPerRun(5000, func() { k.Step() }); avg != 0 {
		t.Errorf("simnet delivery allocates %.4f objects/op in steady state, want 0", avg)
	}
}

// TestSendMessageTracedOnlyZeroAlloc extends the datagram budget of
// TestSendMessageZeroAlloc to sampled tracing: with a nil observer and with
// one in traced-only mode, an untraced SendMessage through a two-hop
// path (serialization, propagation, hop marks, delivery) allocates nothing
// once the transfer pool and link metric handles are warm. Traced-only
// admission must refuse the hop and deliver marks before their field
// slices are built.
func TestSendMessageTracedOnlyZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		obs  func() *obs.Observer
	}{
		{"nil observer", func() *obs.Observer { return nil }},
		{"traced-only observer", func() *obs.Observer {
			o := obs.New()
			o.TracedOnly()
			return o
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New()
			defer k.Shutdown()
			n := New(k)
			n.Obs = tc.obs()
			n.AddHost("a", HostConfig{})
			n.AddRouter("gw", "")
			n.AddHost("b", HostConfig{})
			n.Connect("a", "gw", LinkConfig{Latency: time.Millisecond, Bandwidth: 100 << 20})
			n.Connect("gw", "b", LinkConfig{Latency: time.Millisecond, Bandwidth: 100 << 20})
			delivered := 0
			deliver := func() { delivered++ }
			send := func() {
				if err := n.SendMessage("a", "b", 256, deliver); err != nil {
					t.Fatal(err)
				}
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			}
			send() // route cache, transfer pool and metric handles warm up
			if avg := testing.AllocsPerRun(1000, send); avg != 0 {
				t.Errorf("untraced SendMessage allocates %.4f objects/op, want 0", avg)
			}
			if delivered != 1002 {
				t.Fatalf("delivered %d of 1002 datagrams", delivered)
			}
			if l := n.Obs.Len(); l != 0 {
				t.Fatalf("observer recorded %d untraced events, want 0", l)
			}
		})
	}
}
