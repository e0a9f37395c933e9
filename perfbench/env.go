package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dsp"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
	"repro/internal/wifi"
)

// runDir holds the result stores the fleet workload opens; it lives in
// the build directory so a run writes nothing outside its checkout.
var runDir = filepath.Join(".bench_build", "run")

// env is one workload set up and ready to run: the sweep service users
// submit to, plus the per-point packet plans the serial and traced loops
// replay.
type env struct {
	w       workload
	spec    sweep.Spec
	workers int

	engine *sweep.Engine // engine workloads

	coord  *dist.Coordinator // fleet workload
	srv    *http.Server
	served chan error
	worker *dist.Worker
	dir    string

	pool  *wifi.WaveformPool
	plan  *experiments.SweepPlan
	plans []*experiments.PSRPlan // one per point, IntraWorkers = 1
	segs  [][]int                // segmentPlan of each plans entry

	setup    time.Duration // everything before the first timed packet
	poolWarm time.Duration // the part of setup spent encoding the pool
}

// setupEnv builds w at seed: the engine, or the store, coordinator,
// loopback server and worker; the sweep plan and per-point packet plans;
// the waveform pool for pooled specs; and one packet per point, which
// fills the process-wide FFT, sliding-DFT, slide-table and preamble
// caches that point's grid and MCS use.
func setupEnv(w workload, seed int64, workers int) (*env, error) {
	t0 := time.Now()
	e := &env{w: w, spec: w.spec, workers: workers}
	e.spec.Seed = seed
	if w.fleet {
		if err := e.startFleet(); err != nil {
			e.close()
			return nil, err
		}
	} else {
		// Shards of 8 packets (cprecycle-bench -shard 8) let the workers
		// balance dynamically, so a core slowed by a neighbour delays a
		// sweep by at most one short shard instead of a 64-packet one.
		e.engine = sweep.New(sweep.Config{Workers: workers, ShardPackets: 8})
		e.pool = e.engine.Pool()
	}
	plan, err := e.sweepPlan(e.spec)
	if err != nil {
		e.close()
		return nil, err
	}
	e.plan = plan
	if e.spec.Pool {
		tp := time.Now()
		if err := warmPool(e.pool, plan); err != nil {
			e.close()
			return nil, err
		}
		e.poolWarm = time.Since(tp)
	}
	for _, pt := range plan.Points {
		cfg := pt.Cfg
		cfg.IntraWorkers = 1
		p, err := experiments.PlanPSR(cfg)
		if err == nil {
			err = p.RunPacket(p.Packets(), make([]bool, len(p.Receivers())))
		}
		var segs []int
		if err == nil {
			segs, err = segmentPlan(p.Config())
		}
		if err != nil {
			e.close()
			return nil, err
		}
		e.plans = append(e.plans, p)
		e.segs = append(e.segs, segs)
	}
	e.setup = time.Since(t0)
	return e, nil
}

// sweepPlan plans spec the way the engine does, drawing pooled tiles
// from this env's pool.
func (e *env) sweepPlan(spec sweep.Spec) (*experiments.SweepPlan, error) {
	req, err := spec.Request(e.pool)
	if err != nil {
		return nil, err
	}
	return experiments.NewSweepPlan(req)
}

// warmPool encodes every pool entry the plan's interferers draw from,
// channel-filtered as they are drawn. 1000 picks from a fixed RNG touch
// every index of a 64-waveform entry.
func warmPool(pool *wifi.WaveformPool, plan *experiments.SweepPlan) error {
	r := dsp.NewRand(1)
	for _, pt := range plan.Points {
		s := pt.Cfg.Scenario
		for i, itf := range s.Interferers {
			mcs := itf.MCS
			if mcs.Name == "" { // the interference package's default interferer MCS
				m, err := wifi.MCSByName("16-QAM 1/2")
				if err != nil {
					return err
				}
				mcs = m
			}
			for range 1000 {
				if _, err := pool.PickFiltered(r, s.InterfererGrid(i), mcs, itf.Channel); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// startFleet opens a synced result store in a fresh directory, starts a
// coordinator on it behind a loopback HTTP server, and starts one
// in-process worker, returning once the worker has registered.
func (e *env) startFleet() error {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(runDir, "store-")
	if err != nil {
		return err
	}
	e.dir = dir
	if e.coord, err = dist.New(dist.Config{StoreDir: dir}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = &http.Server{Handler: e.coord.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	e.worker, err = dist.StartWorker(dist.WorkerConfig{
		Coordinator: "http://" + ln.Addr().String(),
		Engine:      sweep.Config{Workers: e.workers},
	})
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for e.worker.WorkerID() == "" {
		if time.Now().After(deadline) {
			return fmt.Errorf("perfbench: worker did not register within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close stops everything setupEnv started and waits for it: the worker
// drains and deregisters, the server shuts down, the store directory is
// removed.
func (e *env) close() {
	if e.worker != nil {
		e.worker.Drain()
		select {
		case <-e.worker.Done():
		case <-time.After(10 * time.Second):
		}
		e.worker.Close()
		e.worker = nil
	}
	if e.coord != nil {
		e.coord.Close()
		e.coord = nil
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := e.srv.Shutdown(ctx); err != nil {
			e.srv.Close()
		}
		cancel()
		<-e.served
		e.srv = nil
	}
	if e.engine != nil {
		e.engine.Close()
		e.engine = nil
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
		e.dir = ""
	}
}
