package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/sim"
)

func TestDistMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(name string, d Dist, tol float64) {
		t.Helper()
		var sum float64
		const n = 200_000
		for i := 0; i < n; i++ {
			sum += d.Sample(rng)
		}
		got := sum / n
		want := d.Mean()
		if math.Abs(got-want)/want > tol {
			t.Errorf("%s: empirical mean %.4g vs analytic %.4g", name, got, want)
		}
	}
	check("const", Const(5), 1e-12)
	check("uniform", Uniform{2, 8}, 0.02)
	check("exp", Exp{MeanVal: 3}, 0.02)
	check("lognormal", LogNormal{Mu: 1, Sigma: 0.5}, 0.05)
	check("pareto", Pareto{XMin: 2, Alpha: 3}, 0.05)
	check("mixture", Mixture{
		Components: []Dist{Const(1), Const(9)},
		Weights:    []float64{0.75, 0.25},
	}, 0.02)
}

func TestParetoInfiniteMean(t *testing.T) {
	if !math.IsInf(Pareto{XMin: 1, Alpha: 0.9}.Mean(), 1) {
		t.Fatal("alpha ≤ 1 Pareto must have infinite mean")
	}
}

func TestMixtureValidate(t *testing.T) {
	if (Mixture{}).Validate() == nil {
		t.Fatal("empty mixture accepted")
	}
	m := Mixture{Components: []Dist{Const(1)}, Weights: []float64{1, 2}}
	if m.Validate() == nil {
		t.Fatal("arity mismatch accepted")
	}
}

// Skip stands in for a Sample whose value nothing reads, inside a random
// stream everything after it depends on: after either, the generator must be
// in the same state. Exp and LogNormal draw by rejection, so how many words a
// draw consumes varies with the seed.
func TestSkipConsumesWhatSampleConsumes(t *testing.T) {
	inner := Mixture{
		Components: []Dist{LogNormal{Mu: 1, Sigma: 2}, Const(3), Exp{MeanVal: 5}},
		Weights:    []float64{1, 1, 2},
	}
	dists := map[string]Dist{
		"const":     Const(5),
		"uniform":   Uniform{2, 8},
		"exp":       Exp{MeanVal: 3},
		"lognormal": LogNormal{Mu: 1, Sigma: 0.5},
		"pareto":    Pareto{XMin: 2, Alpha: 3},
		"mixture": Mixture{
			Components: []Dist{Exp{MeanVal: 1}, Const(9), Pareto{XMin: 1, Alpha: 2}},
			Weights:    []float64{0.5, 0.2, 0.3},
		},
		"nested mixture": Mixture{
			Components: []Dist{inner, Uniform{0, 1}, inner},
			Weights:    []float64{0.4, 0.2, 0.4},
		},
	}
	for name, d := range dists {
		for seed := int64(0); seed < 1000; seed++ {
			sampled, skipped := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for i := 0; i < 8; i++ {
				d.Sample(sampled)
				d.Skip(skipped)
				if a, b := sampled.Uint64(), skipped.Uint64(); a != b {
					t.Fatalf("%s, seed %d, draw %d: next word after Sample %#x, after Skip %#x", name, seed, i, a, b)
				}
			}
		}
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(100, 1.2)
	if len(w) != 100 {
		t.Fatal("length")
	}
	sum := 0.0
	for i, v := range w {
		sum += v
		if i > 0 && v > w[i-1] {
			t.Fatal("weights must be non-increasing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	if w[0] < 0.15 {
		t.Fatalf("head tenant share %v too small for s=1.2", w[0])
	}
}

func TestPickWeightedRespectsWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[PickWeighted(rng, []float64{0.7, 0.2, 0.1})]++
	}
	if counts[0] < 19000 || counts[2] > 4500 {
		t.Fatalf("weighted pick off: %v", counts)
	}
}

func TestSpecValidate(t *testing.T) {
	ports := []uint16{8080}
	for _, s := range Cases(ports) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	bad := Case1(nil)
	if bad.Validate() == nil {
		t.Fatal("no ports accepted")
	}
	weird := Case1(ports)
	weird.PortWeights = []float64{0.5, 0.5}
	if weird.Validate() == nil {
		t.Fatal("weight arity mismatch accepted")
	}
	zero := Case1(ports)
	zero.ConnRate = 0
	if zero.Validate() == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestCaseQuadrants(t *testing.T) {
	ports := []uint16{8080}
	c1, c2, c3, c4 := Case1(ports), Case2(ports), Case3(ports), Case4(ports)
	// CPS axis.
	if c1.ConnRate <= c3.ConnRate || c2.ConnRate <= c4.ConnRate {
		t.Fatal("high-CPS cases must out-rate low-CPS cases")
	}
	// Processing-time axis.
	if c2.CostNS.Mean() <= c1.CostNS.Mean() || c4.CostNS.Mean() <= c3.CostNS.Mean() {
		t.Fatal("high-PT cases must out-cost low-PT cases")
	}
}

func TestScaleMultipliesRate(t *testing.T) {
	s := Case1([]uint16{1})
	h := s.Scale(3)
	if h.ConnRate != s.ConnRate*3 {
		t.Fatal("scale broken")
	}
	if h.OfferedRPS() != s.OfferedRPS()*3 {
		t.Fatal("offered RPS does not scale")
	}
}

func TestRegionsMatchTable4(t *testing.T) {
	rs := Regions()
	if len(rs) != 4 {
		t.Fatal("want 4 regions")
	}
	for _, r := range rs {
		sum := 0.0
		for _, s := range r.CaseShare {
			sum += s
		}
		if math.Abs(sum-1) > 0.01 {
			t.Errorf("%s case shares sum to %v", r.Name, sum)
		}
	}
	// Region4 is case-3 dominated (89.07%), Region2 case-4 (82.13%).
	if rs[3].CaseShare[2] < 0.85 || rs[1].CaseShare[3] < 0.8 {
		t.Fatal("region dominances wrong")
	}
	if rs[2].WebSocketShare == 0 {
		t.Fatal("Region3 must carry websockets")
	}
}

func TestRegionSpecsPreserveRPS(t *testing.T) {
	ports := []uint16{1, 2}
	for _, r := range Regions() {
		specs := r.Specs(ports, 100_000)
		var rps float64
		for _, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			rps += s.OfferedRPS()
		}
		if math.Abs(rps-100_000)/100_000 > 0.01 {
			t.Errorf("%s offers %v RPS, want 100k", r.Name, rps)
		}
	}
}

func TestRegionSampleShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ports := []uint16{1}
	percentiles := func(r Region) (p50, p99 float64) {
		var procs []float64
		for i := 0; i < 40_000; i++ {
			_, p := r.SampleRequest(rng, ports)
			procs = append(procs, p)
		}
		var s sampleSorter
		s.vals = procs
		return s.pct(50), s.pct(99)
	}
	rs := Regions()
	p50r1, p99r1 := percentiles(rs[0])
	p50r3, p99r3 := percentiles(rs[2])
	// Table 1 shape: Region3 P99 explodes (WebSockets) while P50 stays low.
	if p99r3 < 20*p99r1 {
		t.Fatalf("Region3 P99 %.3gms should dwarf Region1's %.3gms", p99r3/1e6, p99r1/1e6)
	}
	if p50r3 > 100*p50r1 {
		t.Fatalf("Region3 P50 should stay moderate: %.3g vs %.3g", p50r3, p50r1)
	}
}

type sampleSorter struct{ vals []float64 }

func (s *sampleSorter) pct(p float64) float64 {
	vs := append([]float64(nil), s.vals...)
	sort.Float64s(vs)
	return vs[int(p/100*float64(len(vs)-1))]
}

func TestRulesPerPortLongTail(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rules := RulesPerPort(rng, 20_000)
	ones, big := 0, 0
	for _, r := range rules {
		if r < 1 || r > 2000 {
			t.Fatalf("rule count %d out of range", r)
		}
		if r == 1 {
			ones++
		}
		if r > 100 {
			big++
		}
	}
	if ones < 8000 {
		t.Fatalf("most ports should have 1 rule, got %d of 20000", ones)
	}
	if big == 0 {
		t.Fatal("no long tail")
	}
}

func TestGeneratorDrivesLB(t *testing.T) {
	eng := sim.NewEngine(42)
	cfg := l7lb.DefaultConfig(l7lb.ModeHermes)
	cfg.Workers = 8
	lb, err := l7lb.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()

	spec := Case3([]uint16{8080})
	spec.ConnRate = 500 // keep the test light
	g, err := NewGenerator(lb, spec)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(200 * time.Millisecond)
	eng.RunUntil(int64(3 * time.Second))

	if g.ConnsAttempted == 0 || g.RequestsSent == 0 {
		t.Fatalf("generator idle: %+v", g)
	}
	// Poisson arrivals at 500/s over 200ms ≈ 100 conns.
	if g.ConnsAttempted < 50 || g.ConnsAttempted > 200 {
		t.Fatalf("conns attempted = %d, want ≈100", g.ConnsAttempted)
	}
	if lb.Completed != g.RequestsSent {
		t.Fatalf("completed %d of %d sent", lb.Completed, g.RequestsSent)
	}
	if g.LiveConns != 0 {
		t.Fatalf("%d conns leaked", g.LiveConns)
	}
}

// After warm-up the generator, the LB under it and the engine under both run
// out of their pools: arrival chains, request trains, the request payloads
// LB.Deliver carries, connections, watches and timer events are all recycled,
// so a request costs no allocation. Each measured run is 10 ms of virtual time,
// ≈ 700 requests on ≈ 200 new connections.
func TestGeneratorSteadyStateAllocs(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := l7lb.DefaultConfig(l7lb.ModeHermes)
	cfg.Workers = 4
	cfg.ConnsPerWorkerHint = 50_000 // lb.Latency holds the whole run without growing
	lb, err := l7lb.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	spec := Case3([]uint16{8080})
	spec.ConnRate = 20_000
	spec.ReqPerConn = Uniform{Lo: 2, Hi: 6}
	spec.InterReqNS = Exp{MeanVal: 200 * us}
	g, err := NewGenerator(lb, spec)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(2 * time.Second)
	eng.RunUntil(int64(800 * time.Millisecond)) // pools, maps, ring and heaps reach their working size

	sent, done := g.RequestsSent, lb.Completed
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { eng.RunFor(10 * time.Millisecond) })
	reqs := g.RequestsSent - sent
	if reqs < 500*runs || lb.Completed-done < 500*runs {
		t.Fatalf("measured phase sent %d requests and completed %d: not a steady state", reqs, lb.Completed-done)
	}
	if allocs != 0 {
		t.Errorf("%.0f allocs per 10 ms of steady state (%d requests in %d runs), want 0", allocs, reqs, runs+1)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		eng := sim.NewEngine(7)
		cfg := l7lb.DefaultConfig(l7lb.ModeReuseport)
		cfg.Workers = 4
		lb, _ := l7lb.New(eng, cfg)
		lb.Start()
		spec := Case1([]uint16{8080})
		spec.ConnRate = 2000
		g, _ := NewGenerator(lb, spec)
		g.Run(100 * time.Millisecond)
		eng.RunUntil(int64(time.Second))
		return g.RequestsSent, lb.Completed
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 || c1 != c2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", s1, c1, s2, c2)
	}
}

func TestSurgeLagEffect(t *testing.T) {
	eng := sim.NewEngine(9)
	cfg := l7lb.DefaultConfig(l7lb.ModeExclusive)
	cfg.Workers = 8
	lb, err := l7lb.New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()

	spec := DefaultSurge(8080)
	spec.Conns = 2000
	spec.EstablishWindow = 500 * time.Millisecond
	spec.QuietUntil = time.Second
	spec.BurstRequests = 3
	s := NewSurge(lb, spec)
	s.Run()

	// Quiet phase: connections land, nothing processed yet.
	eng.RunUntil(int64(900 * time.Millisecond))
	if s.Established < 1900 {
		t.Fatalf("established %d of 2000", s.Established)
	}
	quietBusy := lb.TotalBusyNS()
	if lb.Completed != 0 {
		t.Fatal("requests completed before burst")
	}

	// Burst: load explodes and concentrates (exclusive inherited imbalance).
	eng.RunUntil(int64(4 * time.Second))
	if s.RequestsSent < 5500 {
		t.Fatalf("burst sent only %d", s.RequestsSent)
	}
	if lb.TotalBusyNS() < quietBusy*10 {
		t.Fatal("burst did not amplify load")
	}
	counts := lb.WorkerConnCounts()
	_ = counts // per-worker imbalance demonstrated in the Fig. 3 bench
	if lb.Completed == 0 {
		t.Fatal("no burst requests completed")
	}
}

func TestGeneratorRunWindowPhases(t *testing.T) {
	eng := sim.NewEngine(21)
	cfg := l7lb.DefaultConfig(l7lb.ModeReuseport)
	cfg.Workers = 4
	lb, _ := l7lb.New(eng, cfg)
	lb.Start()

	spec := Case1([]uint16{8080})
	spec.ConnRate = 10_000
	g, _ := NewGenerator(lb, spec)
	// Arrivals only inside [100ms, 200ms).
	g.RunWindow(100*time.Millisecond, 200*time.Millisecond)

	eng.RunUntil(int64(90 * time.Millisecond))
	if g.ConnsAttempted != 0 {
		t.Fatalf("%d conns before the window", g.ConnsAttempted)
	}
	eng.RunUntil(int64(time.Second))
	// ≈1000 Poisson arrivals in 100ms at 10k/s.
	if g.ConnsAttempted < 800 || g.ConnsAttempted > 1250 {
		t.Fatalf("conns = %d, want ≈1000", g.ConnsAttempted)
	}
}
