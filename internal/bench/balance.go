package bench

import (
	"hermes/internal/l7lb"
	"hermes/internal/stats"
)

// balance samples how evenly a device's workers share its load: each sample
// takes the cross-worker standard deviation of the fraction of time spent
// busy since the previous sample (the first: since the engine started), and
// of the connections open now. Fig. 3 prints every sample; Fig. 13 prints the
// means over two simulated days.
type balance struct {
	lb            *l7lb.LB
	lastNS        int64
	prevBusy      []int64
	cpuSD, connSD stats.Sample // one cross-worker stddev per sample
}

// sample takes one reading at the engine's current time, which must have
// advanced since the last one, and returns that reading's busy-fraction
// stddev and the device's open connections.
func (b *balance) sample() (cpuSD float64, live int) {
	now, n := b.lb.Eng.Now(), len(b.lb.Workers)
	if b.prevBusy == nil {
		b.prevBusy = make([]int64, n)
	}
	utils, conns := make([]float64, n), make([]float64, n)
	for i, w := range b.lb.Workers {
		busy := w.BusyNS(now)
		utils[i] = float64(busy-b.prevBusy[i]) / float64(now-b.lastNS)
		b.prevBusy[i] = busy
		open := w.OpenConns()
		conns[i] = float64(open)
		live += open
	}
	b.lastNS = now
	_, cpuSD = stats.MeanStddev(utils)
	b.cpuSD.Add(cpuSD)
	_, connSD := stats.MeanStddev(conns)
	b.connSD.Add(connSD)
	return cpuSD, live
}
