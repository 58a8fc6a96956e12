package cluster

import (
	"testing"
	"time"

	"hermes/internal/heavyhitter"
	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/packet"
	"hermes/internal/sim"
)

func testTenants() []Tenant {
	return []Tenant{
		{VNI: 100, PublicPort: 443, L7Port: 9001},
		{VNI: 200, PublicPort: 80, L7Port: 9002},
	}
}

func newTestCluster(t *testing.T, modes []l7lb.Mode) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{
		Tenants:          testTenants(),
		DeviceModes:      modes,
		WorkersPerDevice: 4,
		Work:             DefaultWorkFactory(20*time.Microsecond, 10*time.Nanosecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	return eng, c
}

func TestClusterValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	wf := DefaultWorkFactory(time.Microsecond, 0)
	if _, err := New(eng, Config{DeviceModes: []l7lb.Mode{l7lb.ModeHermes}, Work: wf}); err == nil {
		t.Fatal("no tenants accepted")
	}
	if _, err := New(eng, Config{Tenants: testTenants(), Work: wf}); err == nil {
		t.Fatal("no devices accepted")
	}
	if _, err := New(eng, Config{Tenants: testTenants(), DeviceModes: []l7lb.Mode{l7lb.ModeHermes}}); err == nil {
		t.Fatal("nil work factory accepted")
	}
	dup := append(testTenants(), Tenant{VNI: 100, PublicPort: 81, L7Port: 9003})
	if _, err := New(eng, Config{Tenants: dup, DeviceModes: []l7lb.Mode{l7lb.ModeHermes}, Work: wf}); err == nil {
		t.Fatal("duplicate VNI accepted")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	eng, c := newTestCluster(t, []l7lb.Mode{l7lb.ModeHermes, l7lb.ModeHermes})
	cl := c.NewClient(100)
	const flows = 200
	for i := 0; i < flows; i++ {
		cl.OpenAndRequest(time.Duration(i)*100*time.Microsecond, 50*time.Microsecond, 300, true)
	}
	eng.RunUntil(int64(time.Second))

	if cl.Errors != 0 {
		t.Fatalf("%d ingress errors", cl.Errors)
	}
	if c.FlowsOpened != flows {
		t.Fatalf("opened %d of %d", c.FlowsOpened, flows)
	}
	var completed uint64
	for _, d := range c.Devices {
		completed += d.Completed
	}
	if completed != flows {
		t.Fatalf("completed %d of %d", completed, flows)
	}
	// NAT check: requests landed on the tenant's L7 port, not 443.
	for _, d := range c.Devices {
		if d.NS.Group(9001) == nil && d.NS.SharedSocket(9001) == nil {
			t.Fatal("device missing the NATed tenant port")
		}
	}
	// ECMP spread: both devices served some flows.
	if c.Devices[0].Completed == 0 || c.Devices[1].Completed == 0 {
		t.Fatalf("ECMP skew: %d/%d", c.Devices[0].Completed, c.Devices[1].Completed)
	}
	if c.LiveFlows() != 0 || c.flowPool.Live() != c.LiveFlows() {
		t.Fatalf("%d flows leaked, %d flow states out", c.LiveFlows(), c.flowPool.Live())
	}
}

// A flow whose device-side connection is already gone when its last request
// arrives (here: reset by a one-connection-per-worker cap) has no later frame
// to tear it down, so the dropped frame must retire it.
func TestDroppedLastFrameRetiresFlow(t *testing.T) {
	eng := sim.NewEngine(1)
	c, err := New(eng, Config{
		Tenants:          testTenants(),
		DeviceModes:      []l7lb.Mode{l7lb.ModeHermes},
		WorkersPerDevice: 1,
		LB:               func(_ int, cfg *l7lb.Config) { cfg.MaxConnsPerWorker = 1 },
		Work:             DefaultWorkFactory(20*time.Microsecond, 10*time.Nanosecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	cl := c.NewClient(100)
	for i := 0; i < 50; i++ {
		cl.OpenAndRequest(time.Duration(i)*10*time.Microsecond, 100*time.Microsecond, 100, true)
	}
	eng.RunUntil(int64(time.Second))
	if c.DataDropped == 0 {
		t.Fatal("no request met a gone connection: the case is not exercised")
	}
	if c.LiveFlows() != 0 || c.flowPool.Live() != c.LiveFlows() {
		t.Fatalf("%d flows leaked (%d dropped data frames), %d flow states out", c.LiveFlows(), c.DataDropped, c.flowPool.Live())
	}
}

func TestPipelinePerTenantIsolation(t *testing.T) {
	eng, c := newTestCluster(t, []l7lb.Mode{l7lb.ModeHermes})
	c.NewClient(100).OpenAndRequest(0, 10*time.Microsecond, 100, true)
	c.NewClient(200).OpenAndRequest(0, 10*time.Microsecond, 100, true)
	eng.RunUntil(int64(100 * time.Millisecond))
	d := c.Devices[0]
	if d.Completed != 2 {
		t.Fatalf("completed %d", d.Completed)
	}
	// Each tenant's traffic arrives on its own L7 port (the isolation the
	// multi-port design buys).
	if d.NS.Group(9001).ProgDispatched+d.NS.Group(9001).HashDispatched+d.NS.Group(9001).Fallbacks == 0 {
		t.Fatal("tenant 100 port unused")
	}
	if d.NS.Group(9002).ProgDispatched+d.NS.Group(9002).HashDispatched+d.NS.Group(9002).Fallbacks == 0 {
		t.Fatal("tenant 200 port unused")
	}
}

func TestIngressRejectsGarbage(t *testing.T) {
	_, c := newTestCluster(t, []l7lb.Mode{l7lb.ModeHermes})

	if err := c.Ingress([]byte("not a frame")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Unknown VNI.
	inner := packet.TCPSegment(1, 2, packet.TCP{SrcPort: 9, DstPort: 443, Flags: packet.FlagSYN}, nil)
	if err := c.Ingress(packet.EncapVXLAN(1, 2, 999, inner)); err == nil {
		t.Fatal("unknown VNI accepted")
	}
	// Wrong public port for the tenant.
	wrongPort := packet.TCPSegment(1, 2, packet.TCP{SrcPort: 9, DstPort: 8443, Flags: packet.FlagSYN}, nil)
	if err := c.Ingress(packet.EncapVXLAN(1, 2, 100, wrongPort)); err == nil {
		t.Fatal("wrong tenant port accepted")
	}
	if c.BadFrames != 3 {
		t.Fatalf("BadFrames = %d", c.BadFrames)
	}
	// Data for a flow that never opened is dropped, not an error.
	orphan := packet.TCPSegment(1, 2, packet.TCP{SrcPort: 9, DstPort: 443, Flags: packet.FlagPSH}, []byte{1})
	if err := c.Ingress(packet.EncapVXLAN(1, 2, 100, orphan)); err != nil {
		t.Fatal(err)
	}
	if c.DataDropped != 1 {
		t.Fatalf("DataDropped = %d", c.DataDropped)
	}
	// Duplicate SYN rejected.
	syn := packet.EncapVXLAN(1, 2, 100, packet.TCPSegment(7, 2, packet.TCP{SrcPort: 7, DstPort: 443, Flags: packet.FlagSYN}, nil))
	if err := c.Ingress(syn); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingress(syn); err == nil {
		t.Fatal("duplicate SYN accepted")
	}
}

func TestFINTearsDownFlow(t *testing.T) {
	eng, c := newTestCluster(t, []l7lb.Mode{l7lb.ModeHermes})
	cl := c.NewClient(100)
	cl.OpenAndRequest(0, 10*time.Microsecond, 50, false) // keep-alive
	eng.RunUntil(int64(10 * time.Millisecond))
	if c.LiveFlows() != 1 {
		t.Fatalf("live = %d", c.LiveFlows())
	}
	// Send FIN through the pipeline.
	inner := packet.TCPSegment(0xc0a8_0001, 0x0a00_0001,
		packet.TCP{SrcPort: 1025, DstPort: 443, Flags: packet.FlagFIN}, nil)
	if err := c.Ingress(packet.EncapVXLAN(1, 2, 100, inner)); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(int64(20 * time.Millisecond))
	if c.LiveFlows() != 0 {
		t.Fatalf("flow not torn down: %d", c.LiveFlows())
	}
}

// The §6.1 methodology: a mixed cluster with exclusive, reuseport, and
// Hermes devices sharing ECMP traffic; Hermes must not be the worst on P99.
func TestMixedModeClusterMethodology(t *testing.T) {
	eng := sim.NewEngine(5)
	modes := []l7lb.Mode{
		l7lb.ModeExclusive, l7lb.ModeReuseport,
		l7lb.ModeHermes, l7lb.ModeHermes,
	}
	c, err := New(eng, Config{
		Tenants:          testTenants(),
		DeviceModes:      modes,
		WorkersPerDevice: 4,
		// Heavy per-byte cost: some requests hang workers.
		Work: DefaultWorkFactory(50*time.Microsecond, 3*time.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	cl := c.NewClient(100)
	rng := eng.Rand()
	for i := 0; i < 3000; i++ {
		size := 100 + rng.Intn(400)
		if rng.Intn(50) == 0 {
			size = 20_000 // hang-inducing request (60ms)
		}
		cl.OpenAndRequest(time.Duration(i)*300*time.Microsecond, 50*time.Microsecond, size, true)
	}
	eng.RunUntil(int64(5 * time.Second))

	var total uint64
	for _, d := range c.Devices {
		total += d.Completed
	}
	if total < 2900 {
		t.Fatalf("completed %d of 3000", total)
	}
	hermesP99 := (c.Devices[2].Latency.Percentile(99) + c.Devices[3].Latency.Percentile(99)) / 2
	for di, name := range []string{"exclusive", "reuseport"} {
		if p := c.Devices[di].Latency.Percentile(99); p < hermesP99*0.5 {
			t.Fatalf("%s P99 %v dramatically beats hermes %v — shape broken", name, p, hermesP99)
		}
	}
}

// Phased scaling (Appendix C): an overloaded 1-device cluster recovers when
// a second device absorbs new flows, while established flows stay pinned.
func TestScaleOutAbsorbsOverload(t *testing.T) {
	eng := sim.NewEngine(9)
	c, err := New(eng, Config{
		Tenants:          testTenants(),
		DeviceModes:      []l7lb.Mode{l7lb.ModeHermes},
		WorkersPerDevice: 2,
		Work:             DefaultWorkFactory(400*time.Microsecond, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	cl := c.NewClient(100)

	// Phase 0: overload 2 workers (demand ≈ 2.7 cores).
	for i := 0; i < 4000; i++ {
		cl.OpenAndRequest(time.Duration(i)*150*time.Microsecond, 30*time.Microsecond, 64, true)
	}
	// Phase 1: scale out at t=200ms.
	eng.At(int64(200*time.Millisecond), func() {
		if _, err := c.AddDevice(l7lb.ModeHermes, 2, nil); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(int64(200 * time.Millisecond))
	p99Before := c.Devices[0].Latency.Percentile(99)

	eng.RunUntil(int64(3 * time.Second))
	if len(c.Devices) != 2 {
		t.Fatal("scale-out did not add a device")
	}
	if c.Devices[1].Completed == 0 {
		t.Fatal("new device served nothing")
	}
	var total uint64
	for _, d := range c.Devices {
		total += d.Completed
	}
	if total != 4000 {
		t.Fatalf("completed %d of 4000", total)
	}
	// Device 0 keeps only its pinned flows after scale-out; the queue it had
	// built drains and overall latency of the post-scale era improves. Use
	// the new device's P99 as the post-scale indicator.
	if p99After := c.Devices[1].Latency.Percentile(99); p99After >= p99Before {
		t.Fatalf("scale-out did not relieve overload: before %v, after %v", p99Before, p99After)
	}
}

// Per-connection consistency while the device set changes — the property L4
// balancers are built around (Concury, Charon; PAPERS.md): a flow opened on N
// devices keeps its device when the fleet grows to N+2, although the widened
// ECMP hash would now send many of its packets elsewhere. Every request must
// complete on the device that took its SYN, none may be dropped, and new
// flows must reach the added devices.
func TestFlowsStayPinnedAcrossScaleOut(t *testing.T) {
	eng, c := newTestCluster(t, []l7lb.Mode{l7lb.ModeExclusive, l7lb.ModeReuseport, l7lb.ModeHermes})
	served := map[int]map[kernel.ConnID]bool{} // device → connections it answered
	watch := func(di int) {
		served[di] = map[kernel.ConnID]bool{}
		c.Devices[di].OnResponse = func(conn kernel.ConnRef, _ l7lb.Work) { served[di][conn.ID()] = true }
	}
	for di := range c.Devices {
		watch(di)
	}

	// SYNs now, each flow's one request only after both scale-outs.
	const flows = 600
	cl := c.NewClient(100)
	for i := 0; i < flows; i++ {
		cl.OpenAndRequest(time.Duration(i)*10*time.Microsecond, 50*time.Millisecond, 200, true)
	}
	eng.RunUntil(int64(10 * time.Millisecond))
	if c.LiveFlows() != flows {
		t.Fatalf("%d of %d flows open before scale-out", c.LiveFlows(), flows)
	}
	type pin struct {
		device int
		conn   kernel.ConnID
	}
	pinned := make(map[flowKey]pin, flows)
	perDevice := make([]uint64, 5)
	for k, fs := range c.flows {
		pinned[k] = pin{fs.device, fs.conn.ID()}
		perDevice[fs.device]++
	}
	for _, at := range []time.Duration{20 * time.Millisecond, 30 * time.Millisecond} {
		eng.At(int64(at), func() {
			if _, err := c.AddDevice(l7lb.ModeHermes, 4, nil); err != nil {
				t.Error(err)
			}
			watch(len(c.Devices) - 1)
		})
	}
	eng.RunUntil(int64(40 * time.Millisecond))
	moved := 0
	for k, p := range pinned {
		if c.ecmp(k) != p.device {
			moved++
		}
	}
	if len(c.Devices) != 5 || moved == 0 {
		t.Fatalf("%d devices, %d of %d flows re-hashed: the scale-out does not exercise pinning", len(c.Devices), moved, flows)
	}

	eng.RunUntil(int64(200 * time.Millisecond))
	if c.DataDropped != 0 || cl.Errors != 0 || c.LiveFlows() != 0 {
		t.Fatalf("%d data frames dropped, %d ingress errors, %d flows left open", c.DataDropped, cl.Errors, c.LiveFlows())
	}
	for k, p := range pinned {
		if !served[p.device][p.conn] {
			t.Fatalf("flow %+v: SYN taken by device %d, request not answered there", k, p.device)
		}
	}
	for di, d := range c.Devices {
		if d.Completed != perDevice[di] {
			t.Errorf("device %d completed %d requests, holds the SYNs of %d flows", di, d.Completed, perDevice[di])
		}
	}

	// New flows see the widened fleet.
	for i := 0; i < flows; i++ {
		cl.OpenAndRequest(200*time.Millisecond+time.Duration(i)*10*time.Microsecond, 50*time.Microsecond, 200, true)
	}
	eng.RunUntil(int64(400 * time.Millisecond))
	if c.Devices[3].Completed == 0 || c.Devices[4].Completed == 0 {
		t.Fatalf("added devices served %d and %d new flows", c.Devices[3].Completed, c.Devices[4].Completed)
	}
	if c.DataDropped != 0 || cl.Errors != 0 || c.LiveFlows() != 0 {
		t.Fatalf("%d data frames dropped, %d ingress errors, %d flows left open", c.DataDropped, cl.Errors, c.LiveFlows())
	}
}

// Appendix C network-attack handling: a flooding tenant is detected at the
// L4 LB and migrated to a sandbox; the victim tenant's service recovers.
func TestAttackDetectionAndSandboxMigration(t *testing.T) {
	eng := sim.NewEngine(11)
	c, err := New(eng, Config{
		Tenants: []Tenant{
			{VNI: 100, PublicPort: 443, L7Port: 9001},
			{VNI: 666, PublicPort: 80, L7Port: 9002}, // attacker
		},
		DeviceModes:      []l7lb.Mode{l7lb.ModeHermes},
		WorkersPerDevice: 2,
		Work:             DefaultWorkFactory(200*time.Microsecond, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Detector = heavyhitter.NewDetector(0.7, 500)
	var detectedVNI uint32
	c.Detector.OnDetect = func(key uint32, est uint32, total uint64) {
		detectedVNI = key
		c.BlockTenant(key)
	}
	c.Start()

	benign := c.NewClient(100)
	attacker := c.NewClient(666)
	// Benign trickle + attack flood (20x the benign rate).
	for i := 0; i < 150; i++ {
		benign.OpenAndRequest(time.Duration(i)*2*time.Millisecond, 100*time.Microsecond, 64, true)
	}
	for i := 0; i < 3000; i++ {
		attacker.OpenAndRequest(time.Duration(i)*100*time.Microsecond, 100*time.Microsecond, 64, true)
	}
	eng.RunUntil(int64(2 * time.Second))

	if detectedVNI != 666 {
		t.Fatalf("detected VNI %d, want 666", detectedVNI)
	}
	if c.SYNsBlocked == 0 {
		t.Fatal("no attack SYNs blocked after migration")
	}
	if attacker.Errors == 0 {
		t.Fatal("attacker saw no refusals")
	}
	// The benign tenant stays fully served.
	if benign.Errors != 0 {
		t.Fatalf("benign tenant suffered %d errors", benign.Errors)
	}
	d := c.Devices[0]
	if d.Completed < 150 {
		t.Fatalf("completed %d", d.Completed)
	}
	// Unblock restores the tenant.
	c.UnblockTenant(666)
	attacker.OpenAndRequest(2100*time.Millisecond, 100*time.Microsecond, 64, true)
	eng.RunUntil(int64(3 * time.Second))
	if attacker.Errors != c.SYNsBlocked {
		t.Fatalf("errors %d != blocked %d after unblock", attacker.Errors, c.SYNsBlocked)
	}
}
