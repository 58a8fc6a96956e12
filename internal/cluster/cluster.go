// Package cluster assembles the ingress pipeline of Fig. 1 around the
// simulated L7 LBs: the cloud gateway encapsulates client traffic in VXLAN
// with the tenant's VNI; the L4 LB decapsulates, rewrites the destination
// port to the tenant's dedicated L7 port (the multi-port tenant isolation
// design), and ECMP-hashes the flow to one device of the L7 cluster.
//
// This is also §6.1's methodology vehicle: the paper evaluates by deploying
// one epoll-exclusive device and one reuseport device alongside Hermes
// devices in a single production cluster, so all modes share the same
// ECMP-split traffic; New accepts one mode per device to reproduce exactly
// that.
package cluster

import (
	"fmt"

	"hermes/internal/bitops"
	"hermes/internal/heavyhitter"
	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/packet"
	"hermes/internal/sim"
)

// Tenant maps a VXLAN VNI to the tenant's public port and the dedicated L7
// port the L4 LB rewrites it to (Fig. 1: P1, P2, ...).
type Tenant struct {
	VNI        uint32
	PublicPort uint16 // 80/443 on the Internet side
	L7Port     uint16 // dedicated port on the L7 devices
}

// WorkFactory converts a request's wire payload into the L7 processing cost
// model — the stand-in for the L7 LB's application parsing and handler
// classification. last reports whether this is the connection's final
// request.
type WorkFactory func(t Tenant, payload []byte, arrivalNS int64, last bool) l7lb.Work

// Config assembles a cluster.
type Config struct {
	// Tenants is the VNI/port table shared by gateway and L4 LB.
	Tenants []Tenant
	// DeviceModes gives one dispatch mode per L7 device (§6.1: a mixed
	// cluster).
	DeviceModes []l7lb.Mode
	// WorkersPerDevice is each device's core count.
	WorkersPerDevice int
	// LB optionally tweaks each device's config before construction.
	LB func(device int, cfg *l7lb.Config)
	// Work converts payloads to processing costs (required). The payload
	// slice aliases the ingress frame and is only valid for the duration of
	// the call.
	Work WorkFactory
}

// Cluster is the assembled pipeline.
type Cluster struct {
	Eng     *sim.Engine
	Tenants map[uint32]Tenant
	Devices []*l7lb.LB

	// flows tracks live inner connections: flow key → device + conn.
	flows map[flowKey]*flowState
	// flowPool recycles flowState objects (the map is their only holder, so
	// a state is free exactly when its key is deleted — no dangling refs to
	// guard, and conn is a checked ref regardless). At 1M-conn scale the
	// per-SYN allocation otherwise dominates the L4 path.
	flowPool    sim.Slab[flowState]
	workFactory WorkFactory

	// sortedPorts is the tenant L7 port list computed once at New (Tenants
	// is a map; iteration order must never leak into device configs).
	sortedPorts []uint16

	// Detector, if set, observes per-VNI SYN arrivals at the L4 LB and
	// flags flooding tenants (Appendix C: SYN-flood / CC attack detection).
	// Wire its OnDetect to BlockTenant for automatic sandbox migration.
	Detector *heavyhitter.Detector
	blocked  map[uint32]bool
	// SYNsBlocked counts SYNs refused because their tenant was migrated.
	SYNsBlocked uint64

	// Stats.
	BadFrames    uint64 // undecodable or unknown-tenant frames
	FlowsOpened  uint64
	FlowsRefused uint64
	DataDropped  uint64 // data for unknown/closed flows
}

type flowKey struct {
	srcIP   uint32
	srcPort uint16
	vni     uint32
}

type flowState struct {
	device int
	// conn is a checked ref: the flow table outlives individual events,
	// and a reset connection's pooled object may be recycled under a new
	// identity before the next frame for this flow arrives.
	conn   kernel.ConnRef
	tenant Tenant
}

// New builds the cluster on eng.
func New(eng *sim.Engine, cfg Config) (*Cluster, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("cluster: at least one tenant required")
	}
	if len(cfg.DeviceModes) == 0 {
		return nil, fmt.Errorf("cluster: at least one device required")
	}
	if cfg.Work == nil {
		return nil, fmt.Errorf("cluster: WorkFactory required")
	}
	if cfg.WorkersPerDevice <= 0 {
		cfg.WorkersPerDevice = 16
	}
	c := &Cluster{
		Eng:     eng,
		Tenants: make(map[uint32]Tenant, len(cfg.Tenants)),
		flows:   make(map[flowKey]*flowState),
		blocked: make(map[uint32]bool),
	}
	ports := make([]uint16, 0, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		if _, dup := c.Tenants[t.VNI]; dup {
			return nil, fmt.Errorf("cluster: duplicate VNI %d", t.VNI)
		}
		c.Tenants[t.VNI] = t
		ports = append(ports, t.L7Port)
	}
	c.sortedPorts = append([]uint16(nil), ports...)
	sortPorts(c.sortedPorts)
	for di, mode := range cfg.DeviceModes {
		lcfg := l7lb.DefaultConfig(mode)
		lcfg.Workers = cfg.WorkersPerDevice
		lcfg.Ports = ports
		if cfg.LB != nil {
			cfg.LB(di, &lcfg)
		}
		lb, err := l7lb.New(eng, lcfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: device %d: %w", di, err)
		}
		c.Devices = append(c.Devices, lb)
	}
	c.workFactory = cfg.Work
	return c, nil
}

// Start launches every device's workers.
func (c *Cluster) Start() {
	for _, d := range c.Devices {
		d.Start()
	}
}

// AddDevice scales the cluster out at runtime (Appendix C's phased scaling:
// traffic surges are absorbed by adding VMs). New flows immediately ECMP
// across the widened fleet; established flows stay pinned to their device
// through the flow table, exactly the per-connection consistency a real L4
// LB maintains during scale-out.
func (c *Cluster) AddDevice(mode l7lb.Mode, workers int, mutate func(*l7lb.Config)) (*l7lb.LB, error) {
	lcfg := l7lb.DefaultConfig(mode)
	lcfg.Workers = workers
	lcfg.Ports = c.sortedPorts
	if mutate != nil {
		mutate(&lcfg)
	}
	lb, err := l7lb.New(c.Eng, lcfg)
	if err != nil {
		return nil, err
	}
	lb.Start()
	c.Devices = append(c.Devices, lb)
	return lb, nil
}

// sortPorts keeps device port order deterministic (Tenants is a map).
func sortPorts(p []uint16) {
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j] < p[j-1]; j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
}

// retireFlow removes flow k from the table and recycles its state.
func (c *Cluster) retireFlow(k flowKey, fs *flowState) {
	delete(c.flows, k)
	c.flowPool.Put(fs)
}

// ecmp picks the device for a flow: per-connection-consistent 5-tuple hash,
// as the L4 LB must deliver all of a connection's packets to one L7 device.
func (c *Cluster) ecmp(k flowKey) int {
	h := (kernel.FourTuple{SrcIP: k.srcIP, SrcPort: k.srcPort, DstIP: k.vni, DstPort: 4789}).Hash()
	return int(bitops.ReciprocalScale(h, uint32(len(c.Devices))))
}

// Ingress processes one gateway frame through the L4 LB: VXLAN decap,
// tenant lookup by VNI, destination-port NAT, ECMP device selection, and
// delivery into the chosen device's kernel. SYN opens a flow; PSH delivers
// a request (the payload's last byte ≠ 0 marks connection close in the
// client protocol below); FIN/RST tears down.
func (c *Cluster) Ingress(frame []byte) error {
	vni, inner, err := packet.DecapVXLAN(frame)
	if err != nil {
		c.BadFrames++
		return err
	}
	tenant, ok := c.Tenants[vni]
	if !ok {
		c.BadFrames++
		return fmt.Errorf("cluster: unknown VNI %d", vni)
	}
	ip, tcp, payload, err := packet.ParseTCPSegment(inner)
	if err != nil {
		c.BadFrames++
		return err
	}
	if tcp.DstPort != tenant.PublicPort {
		c.BadFrames++
		return fmt.Errorf("cluster: VNI %d frame to port %d, tenant owns %d",
			vni, tcp.DstPort, tenant.PublicPort)
	}

	k := flowKey{srcIP: ip.SrcIP, srcPort: tcp.SrcPort, vni: vni}
	switch {
	case tcp.Flags&packet.FlagSYN != 0:
		if c.blocked[vni] {
			c.SYNsBlocked++
			return fmt.Errorf("cluster: tenant VNI %d migrated to sandbox", vni)
		}
		if c.Detector != nil {
			c.Detector.Observe(vni)
			if c.Detector.Flagged(vni) && c.blocked[vni] {
				c.SYNsBlocked++
				return fmt.Errorf("cluster: tenant VNI %d migrated to sandbox", vni)
			}
		}
		if _, dup := c.flows[k]; dup {
			return fmt.Errorf("cluster: duplicate SYN for flow %+v", k)
		}
		di := c.ecmp(k)
		// The NAT rewrite of Fig. 1: DstPort 80/443 → tenant's L7 port.
		conn, ok := c.Devices[di].NS.DeliverSYN(kernel.FourTuple{
			SrcIP:   ip.SrcIP,
			SrcPort: tcp.SrcPort,
			DstIP:   ip.DstIP,
			DstPort: tenant.L7Port,
		}, nil)
		if !ok {
			c.FlowsRefused++
			return fmt.Errorf("cluster: device %d refused flow", di)
		}
		c.FlowsOpened++
		fs := c.flowPool.Get()
		*fs = flowState{device: di, conn: conn.Ref(), tenant: tenant}
		c.flows[k] = fs
	case tcp.Flags&(packet.FlagFIN|packet.FlagRST) != 0:
		fs, ok := c.flows[k]
		if !ok {
			c.DataDropped++
			return nil
		}
		if conn := fs.conn.Get(); conn != nil {
			c.Devices[fs.device].NS.DeliverFIN(conn)
		}
		c.retireFlow(k, fs)
	default:
		fs, ok := c.flows[k]
		var conn *kernel.Conn
		if ok {
			conn = fs.conn.Get()
		}
		if conn == nil || conn.Sock().Closed() {
			// The device side is gone (reset, or its worker crashed), so no
			// frame of this flow can be delivered again: retire it here,
			// or a flow whose last frame lands now never leaves the table.
			c.DataDropped++
			if ok {
				c.retireFlow(k, fs)
			}
			return nil
		}
		last := tcp.Flags&packet.FlagPSH != 0 && len(payload) > 0 && payload[len(payload)-1] == closeMarker
		work := c.workFactory(fs.tenant, payload, c.Eng.Now(), last)
		c.Devices[fs.device].Deliver(conn, work)
		if last {
			c.retireFlow(k, fs)
		}
	}
	return nil
}

// BlockTenant migrates a tenant off this cluster: its SYNs are refused here
// (the control plane would point the VIP at an isolated sandbox cluster,
// Appendix C). Established flows continue until they close.
func (c *Cluster) BlockTenant(vni uint32) { c.blocked[vni] = true }

// UnblockTenant restores a tenant after sandbox analysis.
func (c *Cluster) UnblockTenant(vni uint32) { delete(c.blocked, vni) }

// LiveFlows returns the number of tracked flows.
func (c *Cluster) LiveFlows() int { return len(c.flows) }

// closeMarker is the client-protocol byte marking a connection's final
// request (stands in for Connection: close parsing).
const closeMarker = 0xFF
