package core

import (
	"fmt"
	"testing"
	"time"
)

// explorePass is one schedule_and_sync call taken apart at scheduleAndSync's
// step boundaries — cached, then compute and publish until a publish finds
// the generation it computed under still current — so an explorer can put
// other goroutines' steps between them. Each step is one call into the
// controller, exactly as scheduleAndSync makes it.
type explorePass struct {
	pc       int // 0 cached, 1 compute, 2 publish, 3 returned
	gen      uint64
	res      ScheduleResult
	batching bool
	runs     int // computes; more than one is a rerun
}

func (p *explorePass) step(c *Controller, g *group, nowNS int64) {
	var ok bool
	switch p.pc {
	case 0:
		p.gen, p.res, ok = c.cached(g, nowNS)
	case 1:
		p.res, p.batching = c.compute(g, nowNS)
		p.runs++
		p.pc = 2
		return
	case 2:
		p.gen, ok = c.publish(g, nowNS, p.gen, p.res, p.batching)
	}
	p.pc = 1
	if ok {
		p.pc = 3
	}
}

// publishWorld is one replay of the explorer: a three-worker group whose
// policy-free selection is 111, two passes in one quantum, and one policy
// change that takes worker 1 out of the selection.
type publishWorld struct {
	c      *Controller
	passes [2]explorePass
	first  [2]int // global step at which each pass took its first step; -1 before
	change int    // global step at which the change ran; -1 before
	late   bool   // a pass computed after the change
	steps  int
}

// The three policy changes a pass can race: each drops worker 1 — the veto by
// name, the shorter hang threshold because its loop-enter stamp is 8 ms old,
// the fallback by emptying the set.
var publishChanges = []struct {
	name  string
	apply func(c *Controller)
}{
	{"veto", func(c *Controller) { _ = c.SetWorkerAvailable(1, false) }},
	{"set-config", func(c *Controller) {
		cfg := c.Config()
		cfg.HangThreshold = 5 * time.Millisecond
		_ = c.SetConfig(cfg)
	}},
	{"fallback", func(c *Controller) {
		cfg := c.Config()
		cfg.ForceFallback = true
		_ = c.SetConfig(cfg)
	}},
}

const exploreNow = int64(time.Second)

func newPublishWorld(t *testing.T, warm bool) *publishWorld {
	c, err := NewController(3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.NewWorkerHook(i).LoopEnter(exploreNow)
	}
	c.NewWorkerHook(1).LoopEnter(exploreNow - int64(8*time.Millisecond))
	// A pass before the race publishes 111; warm, it also leaves the
	// quantum's cache filled for the racing passes to hit.
	prologue := exploreNow - int64(syncQuantum)
	if warm {
		prologue = exploreNow - 1
	}
	if res := c.scheduleAndSync(&c.groups[0], prologue); res.Bitmap != 0b111 {
		t.Fatalf("prologue published %03b, want 111", res.Bitmap)
	}
	return &publishWorld{c: c, first: [2]int{-1, -1}, change: -1}
}

// enabled lists the actors with a step left: passes 0 and 1, the change 2.
func (w *publishWorld) enabled() []int {
	var out []int
	for i := range w.passes {
		if w.passes[i].pc != 3 {
			out = append(out, i)
		}
	}
	if w.change < 0 {
		out = append(out, 2)
	}
	return out
}

func (w *publishWorld) step(actor int, change func(*Controller)) {
	if actor == 2 {
		change(w.c)
		w.change = w.steps
	} else {
		if w.first[actor] < 0 {
			w.first[actor] = w.steps
		}
		w.late = w.late || w.change >= 0 && w.passes[actor].pc == 1
		w.passes[actor].step(w.c, &w.c.groups[0], exploreNow)
	}
	w.steps++
}

// Every order of two passes' steps, reruns included, and one policy change,
// keeping each actor's program order, holds scheduleAndSync's publish rule:
// once a pass that started after the change has returned, and so has every
// pass in flight when it landed, the selection map and the quantum cache hold
// a result computed under the change, so the worker it dropped is in neither.
// The same holds in every order where a pass computes after the change; in
// the rest every pass started before it and none reran, and the map holds the
// old policy's bitmap. Steps are the atoms here: a change writes its state before it moves
// the generation, so a boundary inside it adds no outcome the atoms miss.
func TestPublishRuleEveryInterleaving(t *testing.T) {
	start := time.Now()
	var orders, ruled, reran int
	for _, ch := range publishChanges {
		for _, warm := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/warm=%v", ch.name, warm), func(t *testing.T) {
				var explore func(prefix []int)
				explore = func(prefix []int) {
					w := newPublishWorld(t, warm)
					for _, a := range prefix {
						w.step(a, ch.apply)
					}
					if next := w.enabled(); len(next) > 0 {
						for _, a := range next {
							explore(append(prefix[:len(prefix):len(prefix)], a))
						}
						return
					}
					orders++
					if w.passes[0].runs > 1 || w.passes[1].runs > 1 {
						reran++
					}
					c, g := w.c, &w.c.groups[0]
					want, _ := c.compute(g, exploreNow) // a sequential pass under the final policy
					if want.Bitmap&0b010 != 0 {
						t.Fatalf("the change left worker 1 in a fresh pass: %03b", want.Bitmap)
					}
					published := c.Selection(0)
					if !w.late {
						// Every pass computed under the old policy.
						if w.first[0] > w.change || w.first[1] > w.change {
							t.Fatalf("order %v: a pass started after the change and never computed", prefix)
						}
						if published != 0b111 {
							t.Fatalf("order %v: map %03b, want the old policy's 111", prefix, published)
						}
						return
					}
					ruled++
					if published != uint64(want.Bitmap) {
						t.Fatalf("order %v: map holds %03b after every pass returned, want %03b", prefix, published, want.Bitmap)
					}
					if res, ok := g.cache.load(exploreNow, c.polGen.Load()); ok && res != want {
						t.Fatalf("order %v: cache serves %+v after every pass returned, want %+v", prefix, res, want)
					}
				}
				explore(nil)
			})
		}
	}
	if ruled == 0 || reran == 0 {
		t.Fatalf("%d orders, %d under the rule, %d with a rerun: the explorer missed the race", orders, ruled, reran)
	}
	t.Logf("checked %d orders (%d under the rule, %d with a rerun) in %v",
		orders, ruled, reran, time.Since(start).Round(time.Millisecond))
}
