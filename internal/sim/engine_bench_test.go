package sim

import "testing"

// BenchmarkEngineQueue compares the two scheduling APIs on the pattern the
// machine simulator actually runs: a self-rescheduling event chain. The
// closure form allocates a fresh closure per event (the pre-typed-path hot
// path); the typed form schedules a plain heap item and must report 0
// allocs/op.
func BenchmarkEngineQueue(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		b.ReportAllocs()
		var e Engine
		n := 0
		var step func(now Time)
		step = func(now Time) {
			n++
			if n < b.N {
				e.After(1, func(now Time) { step(now) })
			}
		}
		b.ResetTimer()
		e.After(1, func(now Time) { step(now) })
		e.Run()
	})
	b.Run("typed", func(b *testing.B) {
		b.ReportAllocs()
		var e Engine
		n := 0
		var kind Kind
		kind = e.Register(func(now Time, arg uint64) {
			n++
			if n < b.N {
				e.AfterKind(1, kind, arg)
			}
		})
		b.ResetTimer()
		e.AfterKind(1, kind, 0)
		e.Run()
	})
}

// TestEngineTypedScheduleZeroAllocs pins the typed path's allocation claim
// with testing.AllocsPerRun: once the heap has its capacity, a
// schedule+dispatch round allocates nothing.
func TestEngineTypedScheduleZeroAllocs(t *testing.T) {
	var e Engine
	kind := e.Register(func(Time, uint64) {})
	// Warm the heap's backing array.
	for i := 0; i < 64; i++ {
		e.AfterKind(1, kind, 0)
	}
	e.Run()
	avg := testing.AllocsPerRun(100, func() {
		e.AfterKind(1, kind, 0)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("typed schedule+dispatch allocates %.1f per round, want 0", avg)
	}
}

// BenchmarkEngineStatsDisabled runs the typed self-rescheduling chain with
// no stats collector attached: the per-lane attribution costs one nil branch
// per schedule and per dispatch, and must allocate nothing.
func BenchmarkEngineStatsDisabled(b *testing.B) {
	b.ReportAllocs()
	var e Engine
	n := 0
	var kind Kind
	kind = e.Register(func(now Time, arg uint64) {
		n++
		if n < b.N {
			e.AfterKind(1, kind, arg)
		}
	})
	b.ResetTimer()
	e.AfterKind(1, kind, 0)
	e.Run()
	if e.Stats() != nil {
		b.Fatal("stats attached")
	}
}
