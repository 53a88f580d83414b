package core

import (
	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

// buildEngine constructs the run's single-heap engine. CollectShardStats
// attaches per-node dispatch attribution: one lane per node, with a
// Duration/64 timeline window, so every run yields a deterministic
// ~64-bucket dispatch profile regardless of length. Attribution is charged
// at schedule time and never changes dispatch order.
func (s *System) buildEngine() {
	s.eng = &sim.Engine{}
	if s.opt.CollectShardStats {
		window := s.opt.Duration / 64
		if window <= 0 {
			window = 1
		}
		s.eng.EnableStats(s.cfg.Nodes, window)
	}
}

// registerKinds installs the typed step and wake handlers. With shard stats
// on, a step event is charged to its CPU's node, and a wake event to the
// node owning the ready queue it will push onto (the target CPU's node). A
// stale wake has no target queue; it spreads by vm slot rather than pile
// onto lane 0.
func (s *System) registerKinds() {
	s.stepKind = s.eng.Register(func(now sim.Time, arg uint64) {
		s.step(s.cpus[arg], now)
	})
	s.wakeKind = s.eng.Register(func(now sim.Time, arg uint64) {
		s.wakeProc(mem.ProcID(arg>>32), uint32(arg))
	})
	st := s.eng.Stats()
	if st == nil {
		return
	}
	st.Route(s.stepKind, func(arg uint64) int { return int(s.cfg.NodeOf(mem.CPUID(arg))) })
	st.Route(s.wakeKind, func(arg uint64) int {
		if cpu, live := s.wakeTarget(arg); live {
			return int(s.cfg.NodeOf(cpu))
		}
		return int(arg>>32) % st.Lanes()
	})
}

// wakeTarget decodes a wake event's arg (vmID<<32 | slotGen) against the
// slot table: live is false for a stale wake (slot reused, process exited,
// or never existed), whose handler returns without effect. For a live wake
// it returns the CPU whose ready queue MakeRunnable would push onto right
// now.
func (s *System) wakeTarget(arg uint64) (cpu mem.CPUID, live bool) {
	id := mem.ProcID(arg >> 32)
	if int(id) >= len(s.procs) {
		return 0, false
	}
	p := s.procs[id]
	if p == nil || p.slotGen != uint32(arg) || !p.alive {
		return 0, false
	}
	return s.schedul.WakeCPU(p.sp), true
}
