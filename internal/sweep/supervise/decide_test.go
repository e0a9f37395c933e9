package supervise

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep/dist"
)

// fakeProc is a spawned worker that runs until exit or Kill closes done.
type fakeProc struct {
	done chan struct{}
	once sync.Once
}

func (p *fakeProc) Done() <-chan struct{} { return p.done }
func (p *fakeProc) Err() error            { return nil }
func (p *fakeProc) Kill()                 { p.exit() }
func (p *fakeProc) exit()                 { p.once.Do(func() { close(p.done) }) }

type fakeSpawner struct {
	mu    sync.Mutex
	procs map[string]*fakeProc
}

func (f *fakeSpawner) Spawn(name string) (Proc, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := &fakeProc{done: make(chan struct{})}
	f.procs[name] = p
	return p, nil
}

// TestDecideHoldsCapThroughDrains replays converge passes straight into
// decide, with no coordinator: every pass sees the stats given and a
// registry in which each live spawned process is registered, draining
// once the supervisor drained it. MaxWorkers is 2 and the spawn and drain
// counts are cumulative. "job tail" is the sequence behind the old
// TestSupervisorScalesAndCompletes flake: fast points cut the target to
// one, the last point is briefly neither queued nor leased, and the
// supervisor used to drain the last worker and then spawn a third.
// "new job while draining" holds the cap while drained processes are
// still running.
func TestDecideHoldsCapThroughDrains(t *testing.T) {
	type pass struct {
		what           string
		st             dist.FleetStats
		exit           []string // spawned workers whose processes exit before the pass
		spawns, drains int64
	}
	for _, tc := range []struct {
		name   string
		passes []pass
	}{
		{"job tail", []pass{
			{"submit", dist.FleetStats{QueueDepth: 6, JobsRunning: 1}, nil, 1, 0},
			{"first lease", dist.FleetStats{QueueDepth: 5, LeasesInflight: 1, JobsRunning: 1}, nil, 2, 0},
			{"fast points", dist.FleetStats{QueueDepth: 2, LeasesInflight: 2, LeaseEstSeconds: 0.01, JobsRunning: 1}, nil, 2, 1},
			{"last point between leases", dist.FleetStats{LeaseEstSeconds: 0.01, JobsRunning: 1}, nil, 2, 1},
			{"last point queued", dist.FleetStats{QueueDepth: 1, LeaseEstSeconds: 0.01, JobsRunning: 1}, nil, 2, 1},
			{"job done", dist.FleetStats{JobsDone: 1}, nil, 2, 2},
		}},
		{"new job while draining", []pass{
			{"submit", dist.FleetStats{QueueDepth: 4, JobsRunning: 1}, nil, 1, 0},
			{"scale to two", dist.FleetStats{QueueDepth: 3, LeasesInflight: 1, JobsRunning: 1}, nil, 2, 0},
			{"job done", dist.FleetStats{JobsDone: 1}, nil, 2, 2},
			{"next job, drained processes running", dist.FleetStats{QueueDepth: 4, JobsRunning: 1}, nil, 2, 2},
			{"drained processes exited", dist.FleetStats{QueueDepth: 4, JobsRunning: 1}, []string{"1", "2"}, 3, 2},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := &fakeSpawner{procs: make(map[string]*fakeProc)}
			cfg, err := Config{Coordinator: "http://coordinator.invalid", Spawner: sp, MaxWorkers: 2}.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			s := &Supervisor{
				cfg: cfg, log: cfg.Log, prefix: "sup-t", ctx: ctx, cancel: cancel,
				kick: make(chan struct{}, 1), procs: make(map[string]*procState),
				stuckDrainedAt: make(map[string]time.Time),
			}
			t.Cleanup(s.Close)
			for _, p := range tc.passes {
				for _, n := range p.exit {
					sp.mu.Lock()
					sp.procs[s.prefix+"-"+n].exit()
					sp.mu.Unlock()
					waitExited(t, s, s.prefix+"-"+n)
				}
				s.decide(p.st, registryOf(s), time.Now())
				if got, want := s.spawns.Load(), p.spawns; got != want {
					t.Fatalf("%s: %d spawns, want %d", p.what, got, want)
				}
				if got, want := s.scaleDowns.Load(), p.drains; got != want {
					t.Fatalf("%s: %d drains, want %d", p.what, got, want)
				}
			}
		})
	}
}

// registryOf lists every process s still tracks as a registered worker:
// draining when s drained it, active otherwise.
func registryOf(s *Supervisor) []dist.WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []dist.WorkerInfo
	for name, ps := range s.procs {
		state := workerActive
		if ps.draining {
			state = workerDraining
		}
		out = append(out, dist.WorkerInfo{ID: "id-" + name, Name: name, State: state, Leases: 1})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// waitExited waits for s to observe the exit of process name.
func waitExited(t *testing.T, s *Supervisor, name string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		_, tracked := s.procs[name]
		s.mu.Unlock()
		if !tracked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never saw %s exit", name)
		}
		time.Sleep(time.Millisecond)
	}
}
