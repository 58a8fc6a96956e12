package kernel

import (
	"math/rand"
	"testing"

	"hermes/internal/sim"
)

// A listener's accept queue links its connections through the connections
// themselves, and a connection's receive queue links skbs from the stack's
// slab; a closed pair is reincarnated by a later SYN. queueProgram runs a byte
// string as a program of SYN / Accept / DeliverData / PopData / DeliverFIN /
// CloseSocket calls on one listener with a small backlog, against a model that
// is nothing but slices: after every call both queues must hold what the model
// holds, in its order, every SYN must be refused exactly when the model's
// accept queue is full, and the slabs must have out exactly the pairs and
// skbs the model holds — none once everything is accepted, read and closed.

type modelConn struct {
	c   *Conn
	id  ConnID
	rx  []int // payloads delivered and not read, oldest first
	hup bool
}

type queueProgram struct {
	t    *testing.T
	prog []byte
	pc   int

	ns       *NetStack
	ls       *Socket
	backlog  int
	queue    []*modelConn // the accept queue, oldest first
	accepted []*modelConn // accepted and not closed
	payload  int
	lastID   ConnID
	src      uint32
	drops    int
}

func (p *queueProgram) next() int {
	if p.pc >= len(p.prog) {
		return 0
	}
	b := p.prog[p.pc]
	p.pc++
	return int(b)
}

// open picks a connection that is queued or accepted, or nil if there is none.
func (p *queueProgram) open(arg int) *modelConn {
	n := len(p.queue) + len(p.accepted)
	if n == 0 {
		return nil
	}
	i := arg % n
	if i < len(p.queue) {
		return p.queue[i]
	}
	return p.accepted[i-len(p.queue)]
}

func (p *queueProgram) syn() {
	p.src++
	c, ok := p.ns.DeliverSYN(tupleFor(p.src, 80), nil)
	if full := len(p.queue) >= p.backlog; ok == full {
		p.t.Fatalf("SYN %d: ok %v with %d of %d queued", p.src, ok, len(p.queue), p.backlog)
	}
	if !ok {
		p.drops++
		return
	}
	if c.ID <= p.lastID || c.Sock().PendingData() != 0 || c.Sock().Hup() || c.Sock().Closed() || c.AcceptedNS != -1 {
		s := c.Sock()
		p.t.Fatalf("SYN %d: conn %d (last %d) pending %d hup %v closed %v: not a fresh connection", p.src, c.ID, p.lastID, s.PendingData(), s.Hup(), s.Closed())
	}
	p.lastID = c.ID
	p.queue = append(p.queue, &modelConn{c: c, id: c.ID})
}

func (p *queueProgram) accept() {
	c, ok := p.ls.Accept()
	if ok != (len(p.queue) > 0) {
		p.t.Fatalf("Accept: ok %v with %d queued", ok, len(p.queue))
	}
	if !ok {
		return
	}
	m := p.queue[0]
	if c != m.c || c.ID != m.id {
		p.t.Fatalf("Accept returned conn %d, want the oldest, %d", c.ID, m.id)
	}
	p.queue = p.queue[1:]
	p.accepted = append(p.accepted, m)
}

func (p *queueProgram) deliver(arg int) {
	if m := p.open(arg); m != nil {
		p.payload++
		p.ns.DeliverData(m.c, p.payload)
		m.rx = append(m.rx, p.payload)
	}
}

func (p *queueProgram) pop(arg int) {
	if len(p.accepted) == 0 {
		return
	}
	m := p.accepted[arg%len(p.accepted)]
	got, ok := m.c.Sock().PopData()
	if ok != (len(m.rx) > 0) {
		p.t.Fatalf("PopData on conn %d: ok %v with %d queued", m.id, ok, len(m.rx))
	}
	if !ok {
		return
	}
	if got != m.rx[0] {
		p.t.Fatalf("PopData on conn %d = %v, want the oldest, %d", m.id, got, m.rx[0])
	}
	m.rx = m.rx[1:]
}

func (p *queueProgram) fin(arg int) {
	if m := p.open(arg); m != nil {
		p.ns.DeliverFIN(m.c)
		m.hup = true
	}
}

func (p *queueProgram) close(arg int) {
	if len(p.accepted) == 0 {
		return
	}
	i := arg % len(p.accepted)
	p.ns.CloseSocket(p.accepted[i].c.Sock())
	p.accepted = append(p.accepted[:i], p.accepted[i+1:]...)
}

// check holds both queues and the slabs to the model.
func (p *queueProgram) check(op string) {
	t := p.t
	if p.ls.QueueLen() != len(p.queue) {
		t.Fatalf("after %s: QueueLen %d, model %d", op, p.ls.QueueLen(), len(p.queue))
	}
	c := p.ls.QueueHead()
	for i, m := range p.queue {
		if c != m.c || c.ID != m.id {
			t.Fatalf("after %s: accept queue slot %d is not conn %d", op, i, m.id)
		}
		c = c.NextQueued()
	}
	if c != nil {
		t.Fatalf("after %s: the accept queue links conn %d past its newest", op, c.ID)
	}
	skbs := 0
	for _, ms := range [][]*modelConn{p.queue, p.accepted} {
		for _, m := range ms {
			s := m.c.Sock()
			if m.c.ID != m.id || s.Closed() || s.PendingData() != len(m.rx) || s.Hup() != m.hup {
				t.Fatalf("after %s: conn %d (now %d) pending %d hup %v closed %v, model pending %d hup %v",
					op, m.id, m.c.ID, s.PendingData(), s.Hup(), s.Closed(), len(m.rx), m.hup)
			}
			skbs += len(m.rx)
		}
	}
	conns, watches, b := p.ns.Live()
	if conns != len(p.queue)+len(p.accepted) || watches != 0 || b != skbs {
		t.Fatalf("after %s: slabs have %d pairs, %d watches, %d skbs out; model holds %d pairs, %d payloads",
			op, conns, watches, b, len(p.queue)+len(p.accepted), skbs)
	}
}

func runQueueProgram(t *testing.T, prog []byte) {
	p := &queueProgram{t: t, prog: prog, ns: NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)}
	p.backlog = 1 + p.next()%4
	ls, err := p.ns.ListenShared(80, p.backlog)
	if err != nil {
		t.Fatal(err)
	}
	p.ls = ls
	for p.pc < len(p.prog) {
		op, arg := p.next(), p.next()
		var name string
		switch op % 6 {
		case 0:
			name = "SYN"
			p.syn()
		case 1:
			name = "Accept"
			p.accept()
		case 2:
			name = "DeliverData"
			p.deliver(arg)
		case 3:
			name = "PopData"
			p.pop(arg)
		case 4:
			name = "DeliverFIN"
			p.fin(arg)
		case 5:
			name = "CloseSocket"
			p.close(arg)
		}
		p.check(name)
	}
	if got := int(p.src) - int(p.ns.ConnsEstablished); got != p.drops {
		t.Fatalf("%d SYNs not established, model dropped %d", got, p.drops)
	}
	// Drain: accept, read and close everything.
	for len(p.queue) > 0 {
		p.accept()
	}
	for len(p.accepted) > 0 {
		for len(p.accepted[0].rx) > 0 {
			p.pop(0)
		}
		p.close(0)
	}
	p.check("the drain")
	if c, w, b := p.ns.Live(); c != 0 || w != 0 || b != 0 {
		t.Fatalf("drained stack has %d pairs, %d watches, %d skbs out", c, w, b)
	}
}

// queueSeeds are hand-written programs: a full backlog refusing a SYN, a pair
// closed with payloads unread and reincarnated while another connection is
// queued behind where it last sat, data and a FIN delivered before accept.
var queueSeeds = [][]byte{
	{1, 0, 0, 0, 0, 0, 0, 0},                                        // backlog 2: two SYNs queue, the third is refused
	{1, 0, 0, 0, 0, 1, 0, 2, 0, 2, 0, 5, 0, 0, 0, 1, 0, 1, 0},       // close with data unread, reincarnate behind the queued one
	{0, 0, 0, 2, 0, 2, 0, 4, 0, 1, 0, 3, 0, 3, 0, 3, 0, 5, 0, 0, 0}, // data and FIN before accept, read, close, reincarnate
}

func TestSocketQueuesAgainstModel(t *testing.T) {
	for _, prog := range queueSeeds {
		runQueueProgram(t, prog)
	}
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 2000; i++ {
		prog := make([]byte, 2+rng.Intn(400))
		rng.Read(prog)
		runQueueProgram(t, prog)
	}
}

func FuzzSocketQueues(f *testing.F) {
	for _, prog := range queueSeeds {
		f.Add(prog)
	}
	f.Fuzz(runQueueProgram)
}
