package sim

// ShardStats is the engine's per-node dispatch attribution: every event is
// charged to a lane when it is scheduled, and the collector keeps per-lane
// dispatch counts, pending high-water marks, cross-lane schedule traffic,
// and a windowed dispatch timeline. A lane is a unit of locality — the
// machine simulator makes one lane per node and routes a CPU's step events
// to its node — so the report shows how the event load spreads over the
// machine without changing how it is dispatched.
//
// Attribution happens at schedule time. A typed event goes to the lane its
// kind's route function names (see Route); kinds without a route, closure
// events and periodics go to lane 0. A typed schedule made while an event
// of another lane is being dispatched counts as one cross-lane post from the
// dispatching lane to the destination lane. Closure schedules carry no route
// and are never counted as posts.
//
// A nil *ShardStats is the disabled state: the engine pays one branch per
// AtKind, At and Step (pinned by BenchmarkEngineStatsDisabled). Every field
// derives from the event sequence alone, so the report is byte-deterministic
// for a deterministic run.
type ShardStats struct {
	lanes  int
	window Time

	// route maps a kind to its lane function (nil entries and kinds beyond
	// the slice route to lane 0).
	route []func(arg uint64) int
	// cur is the lane of the event being dispatched, -1 outside dispatch.
	cur int32

	lane    []LaneStat
	pending []int    // scheduled, undispatched events per lane
	traffic []uint64 // cross-lane posts, indexed src*lanes+dst
	posts   uint64

	// Windowed timeline, stored flat to bound allocation: winLane holds
	// lanes entries per window (the per-lane dispatch counts inside it).
	winStart []Time
	winEnd   []Time
	winLane  []uint64
	curOpen  bool
	curEnd   Time
}

// LaneStat is one lane's counters.
type LaneStat struct {
	// Dispatched counts events this lane fired.
	Dispatched uint64
	// HeapMax is the lane's high-water mark of pending events.
	HeapMax int
	// Sent and Recv count cross-lane posts leaving and entering the lane.
	Sent uint64
	Recv uint64
}

// EnableStats attaches a stats collector with the given lane count to the
// engine and returns it. window buckets the dispatch timeline (<= 0
// disables the timeline). Enable stats before scheduling anything: events
// already queued were never attributed to a lane.
func (e *Engine) EnableStats(lanes int, window Time) *ShardStats {
	if lanes < 1 {
		panic("sim: stats need at least one lane")
	}
	if len(e.heap) > 0 {
		panic("sim: stats enabled with events already scheduled")
	}
	st := &ShardStats{
		lanes:   lanes,
		window:  window,
		cur:     -1,
		lane:    make([]LaneStat, lanes),
		pending: make([]int, lanes),
		traffic: make([]uint64, lanes*lanes),
	}
	e.stats = st
	return st
}

// Stats returns the engine's stats collector (nil when disabled).
func (e *Engine) Stats() *ShardStats { return e.stats }

// Route attributes kind k's events to the lane laneOf returns for the
// scheduling-time arg. Results outside [0, Lanes) fall back to lane 0.
func (st *ShardStats) Route(k Kind, laneOf func(arg uint64) int) {
	for int(k) >= len(st.route) {
		st.route = append(st.route, nil)
	}
	st.route[k] = laneOf
}

// Lanes returns the lane count the collector was built for. Safe on nil.
func (st *ShardStats) Lanes() int {
	if st == nil {
		return 0
	}
	return st.lanes
}

// Lane returns lane i's counters.
func (st *ShardStats) Lane(i int) LaneStat { return st.lane[i] }

// Traffic returns the number of cross-lane posts sent from src to dst.
func (st *ShardStats) Traffic(src, dst int) uint64 { return st.traffic[src*st.lanes+dst] }

// Posts returns the total cross-lane post count.
func (st *ShardStats) Posts() uint64 { return st.posts }

// Window returns the timeline bucket width.
func (st *ShardStats) Window() Time { return st.window }

// Windows returns the number of timeline records.
func (st *ShardStats) Windows() int { return len(st.winStart) }

// WindowAt returns timeline record i: its time bounds and the per-lane
// dispatch counts inside it. The returned slice aliases the collector's
// storage; do not mutate.
func (st *ShardStats) WindowAt(i int) (start, end Time, dispatch []uint64) {
	return st.winStart[i], st.winEnd[i], st.winLane[i*st.lanes : (i+1)*st.lanes]
}

// TotalDispatched sums the per-lane dispatch counts; it equals the
// engine's fired count.
func (st *ShardStats) TotalDispatched() uint64 {
	var n uint64
	for i := range st.lane {
		n += st.lane[i].Dispatched
	}
	return n
}

// laneOf resolves the lane a typed event of kind k with arg belongs to.
func (st *ShardStats) laneOf(k Kind, arg uint64) int32 {
	if int(k) < len(st.route) {
		if fn := st.route[k]; fn != nil {
			if d := fn(arg); d > 0 && d < st.lanes {
				return int32(d)
			}
		}
	}
	return 0
}

// noteTyped attributes one typed schedule and returns its lane: a cross-lane
// post when another lane is dispatching, and one more pending event.
func (st *ShardStats) noteTyped(k Kind, arg uint64) int32 {
	dst := st.laneOf(k, arg)
	if st.cur >= 0 && dst != st.cur {
		st.traffic[int(st.cur)*st.lanes+int(dst)]++
		st.lane[st.cur].Sent++
		st.lane[dst].Recv++
		st.posts++
	}
	st.notePending(dst)
	return dst
}

// notePending counts one more pending event on lane and tracks its
// high-water mark.
func (st *ShardStats) notePending(lane int32) {
	st.pending[lane]++
	if st.pending[lane] > st.lane[lane].HeapMax {
		st.lane[lane].HeapMax = st.pending[lane]
	}
}

// noteDispatch records one dispatch on lane at now, bucketing it into the
// timeline, and marks lane as the dispatching one.
func (st *ShardStats) noteDispatch(lane int32, now Time) {
	st.cur = lane
	st.pending[lane]--
	st.lane[lane].Dispatched++
	if st.window <= 0 {
		return
	}
	if !st.curOpen || now >= st.curEnd {
		st.roll(now)
	}
	st.winLane[len(st.winLane)-st.lanes+int(lane)]++
}

// roll opens the timeline bucket containing now.
func (st *ShardStats) roll(now Time) {
	start := now / st.window * st.window
	st.curOpen = true
	st.curEnd = start + st.window
	st.winStart = append(st.winStart, start)
	st.winEnd = append(st.winEnd, st.curEnd)
	for i := 0; i < st.lanes; i++ {
		st.winLane = append(st.winLane, 0)
	}
}
