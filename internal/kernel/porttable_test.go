package kernel

import (
	"strings"
	"testing"

	"hermes/internal/sim"
)

// Ports are indices into 256-entry pages: the neighbours on either side of a
// page edge, and the last port there is, must bind, resolve, refuse a second
// bind of either kind, unbind on close and bind again — each without touching
// the port next to it.
func TestPortBindCloseRebindAcrossPages(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	ports := []uint16{0, 255, 256, 257, 8080, 65279, 65280, 65535}

	// What the stack must report for every port, bound or not.
	type binding struct {
		shared *Socket
		group  *ReuseportGroup
	}
	want := map[uint16]binding{}
	// halfClosed names a port whose group has lost a member: it stays bound,
	// but a SYN that hashes to the closed member is dropped, so only its
	// resolution is checked.
	check := func(when string, halfClosed ...uint16) {
		t.Helper()
		for _, p := range append([]uint16{1, 254, 511, 512, 65534}, ports...) {
			if got := (binding{ns.SharedSocket(p), ns.Group(p)}); got != want[p] {
				t.Fatalf("%s: port %d resolves to %+v, want %+v", when, p, got, want[p])
			}
			if len(halfClosed) > 0 && halfClosed[0] == p {
				continue
			}
			_, ok := ns.DeliverSYN(tupleFor(uint32(p)+1, p), nil)
			if bound := want[p] != (binding{}); ok != bound {
				t.Fatalf("%s: SYN to port %d accepted = %v, bound = %v", when, p, ok, bound)
			}
		}
	}
	refused := func(p uint16, kind string) {
		t.Helper()
		_, errS := ns.ListenShared(p, 64)
		_, errG := ns.ListenReuseport(p, 2, 64)
		for _, err := range []error{errS, errG} {
			if err == nil || !strings.Contains(err.Error(), kind) {
				t.Fatalf("second bind of port %d: err = %v, want one naming the %s binding", p, err, kind)
			}
		}
	}

	check("empty stack")
	for i, p := range ports {
		if i%2 == 0 {
			s, err := ns.ListenShared(p, 64)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = binding{shared: s}
			refused(p, "shared")
		} else {
			g, err := ns.ListenReuseport(p, 2, 64)
			if err != nil {
				t.Fatal(err)
			}
			want[p] = binding{group: g}
			refused(p, "reuseport")
		}
		check("after binding")
	}

	// Close one at a time; a group goes with its last member, not its first.
	for _, p := range ports {
		if s := want[p].shared; s != nil {
			ns.CloseSocket(s)
		} else {
			socks := want[p].group.Sockets()
			ns.CloseSocket(socks[0])
			check("after closing one group member", p)
			ns.CloseSocket(socks[1])
		}
		delete(want, p)
		check("after closing")
	}

	// Every port is free again, for the other kind of binding.
	for i, p := range ports {
		if i%2 == 0 {
			g, err := ns.ListenReuseport(p, 3, 64)
			if err != nil {
				t.Fatalf("rebinding port %d as reuseport: %v", p, err)
			}
			want[p] = binding{group: g}
		} else {
			s, err := ns.ListenShared(p, 64)
			if err != nil {
				t.Fatalf("rebinding port %d as shared: %v", p, err)
			}
			want[p] = binding{shared: s}
		}
	}
	check("after rebinding")
}
