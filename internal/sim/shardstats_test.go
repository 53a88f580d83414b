package sim

import (
	"reflect"
	"testing"
)

// TestShardStatsSerialized pins the attribution hooks: dispatch counts match
// the engine's fired count, typed schedules made while another lane is
// dispatching land in the traffic matrix, pending high-water marks are seen,
// and the dispatch timeline buckets on window-aligned boundaries.
func TestShardStatsSerialized(t *testing.T) {
	const lanes = 3
	var eng Engine
	st := eng.EnableStats(lanes, 64)
	var k Kind
	k = eng.Register(func(now Time, arg uint64) {
		if arg >= lanes {
			// Reschedule on this lane and fan one event to the next lane:
			// dispatch-time cross-lane scheduling the stats must attribute.
			eng.AtKind(now+7, k, arg-lanes)
			eng.AtKind(now+9, k, (arg+1)%lanes)
		}
	})
	st.Route(k, func(arg uint64) int { return int(arg) % lanes })
	for i := uint64(0); i < lanes; i++ {
		eng.AtKind(Time(i), k, 30*lanes+i)
	}
	eng.RunUntil(Millisecond)

	if got, want := st.TotalDispatched(), eng.Fired(); got != want {
		t.Fatalf("TotalDispatched = %d, engine fired %d", got, want)
	}
	if st.Posts() == 0 {
		t.Fatal("cross-lane schedules left no traffic")
	}
	var sent, recv uint64
	for i := 0; i < lanes; i++ {
		sent += st.Lane(i).Sent
		recv += st.Lane(i).Recv
		if st.Lane(i).HeapMax < 1 {
			t.Fatalf("lane %d recorded no pending high-water mark", i)
		}
		if st.Traffic(i, i) != 0 {
			t.Fatalf("lane %d recorded self-traffic", i)
		}
	}
	if sent != st.Posts() || recv != st.Posts() {
		t.Fatalf("sent/recv totals %d/%d do not match posts %d", sent, recv, st.Posts())
	}
	if st.Windows() == 0 {
		t.Fatal("windowed timeline empty")
	}
	var inWindows uint64
	for i := 0; i < st.Windows(); i++ {
		start, end, disp := st.WindowAt(i)
		if start%st.Window() != 0 || end != start+st.Window() {
			t.Fatalf("window %d = [%d,%d), want %d-aligned", i, start, end, st.Window())
		}
		for _, d := range disp {
			inWindows += d
		}
	}
	if inWindows != st.TotalDispatched() {
		t.Fatalf("timeline accounts for %d dispatches, want %d", inWindows, st.TotalDispatched())
	}
}

// TestShardStatsUnroutedOnLaneZero pins the fallback routes: closures,
// periodics, kinds without a route and out-of-range lanes all charge lane 0,
// and a closure scheduled from another lane is not a cross-lane post.
func TestShardStatsUnroutedOnLaneZero(t *testing.T) {
	var eng Engine
	st := eng.EnableStats(2, 0)
	routed := eng.Register(func(now Time, arg uint64) {
		eng.At(now+1, func(Time) {})
	})
	st.Route(routed, func(arg uint64) int { return int(arg) })
	plain := eng.Register(func(Time, uint64) {})
	eng.AtKind(1, routed, 1) // lane 1, schedules a closure onto lane 0
	eng.AtKind(2, routed, 7) // out of range: lane 0
	eng.AtKind(3, plain, 1)  // no route: lane 0
	n := 0
	eng.Every(5, func(Time) { n++ }, func() bool { return n >= 2 })
	eng.Run()

	if got := st.Lane(1).Dispatched; got != 1 {
		t.Fatalf("lane 1 dispatched %d, want only the routed event", got)
	}
	if got, want := st.Lane(0).Dispatched, eng.Fired()-1; got != want {
		t.Fatalf("lane 0 dispatched %d, want %d", got, want)
	}
	if st.Posts() != 0 {
		t.Fatalf("closure schedules counted as %d cross-lane posts", st.Posts())
	}
}

// TestShardStatsNeutralDispatch pins that attribution never changes the
// dispatch sequence: the same model logs the same (time, arg) sequence with
// stats on and off.
func TestShardStatsNeutralDispatch(t *testing.T) {
	run := func(stats bool) []uint64 {
		var eng Engine
		var st *ShardStats
		if stats {
			st = eng.EnableStats(4, 50)
		}
		var log []uint64
		rng := NewRand(99)
		var k Kind
		k = eng.Register(func(now Time, arg uint64) {
			log = append(log, uint64(now)<<8|arg)
			if len(log) < 4000 {
				eng.AtKind(now+Time(1+rng.Intn(500)), k, arg)
				if rng.Bool(0.3) {
					eng.AtKind(now+Time(1+rng.Intn(500)), k, rng.Uint64()%64)
				}
			}
		})
		if st != nil {
			st.Route(k, func(arg uint64) int { return int(arg % 4) })
		}
		for i := uint64(0); i < 8; i++ {
			eng.AtKind(Time(i*7), k, i)
		}
		eng.RunUntil(2 * Millisecond)
		return log
	}
	if off, on := run(false), run(true); !reflect.DeepEqual(off, on) {
		t.Fatalf("stats changed the dispatch sequence (%d vs %d events)", len(off), len(on))
	}
}

// TestShardStatsNilSafe pins the disabled state: a nil collector reports no
// lanes, and an engine without stats reports none.
func TestShardStatsNilSafe(t *testing.T) {
	var st *ShardStats
	if st.Lanes() != 0 {
		t.Fatal("nil collector does not report disabled")
	}
	var eng Engine
	if eng.Stats() != nil {
		t.Fatal("zero engine reports a stats collector")
	}
}
