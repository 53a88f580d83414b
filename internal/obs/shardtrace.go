package obs

import (
	"bufio"
	"encoding/json"
	"io"

	"ccnuma/internal/sim"
)

// Shard-stats export: the engine's per-node dispatch attribution
// (sim.ShardStats) as deterministic JSONL and as Perfetto lane tracks inside
// the Chrome trace. Every field derives from virtual time and the event
// sequence, so the export is byte-deterministic for a deterministic run.

// shardSummaryJSON is the first JSONL line: the collector-wide picture.
type shardSummaryJSON struct {
	Record   string   `json:"record"`
	Lanes    int      `json:"lanes"`
	Posts    uint64   `json:"posts"`
	WindowNs sim.Time `json:"window_ns"`
	Total    uint64   `json:"total_dispatched"`
}

// shardLaneJSON is one lane's counters plus its outbound traffic row.
type shardLaneJSON struct {
	Record     string   `json:"record"`
	Lane       int      `json:"lane"`
	Dispatched uint64   `json:"dispatched"`
	HeapMax    int      `json:"heap_max"`
	Sent       uint64   `json:"sent"`
	Recv       uint64   `json:"recv"`
	Traffic    []uint64 `json:"traffic"`
}

// shardWindowJSON is one timeline record.
type shardWindowJSON struct {
	Record   string   `json:"record"`
	Window   int      `json:"window"`
	StartNs  sim.Time `json:"start_ns"`
	EndNs    sim.Time `json:"end_ns"`
	Dispatch []uint64 `json:"dispatch"`
}

// WriteShardStatsJSONL writes the shard-stats report as JSONL: a summary
// line, one line per lane (with its outbound traffic row), and one line per
// timeline window.
func WriteShardStatsJSONL(w io.Writer, st *sim.ShardStats) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(shardSummaryJSON{
		Record:   "summary",
		Lanes:    st.Lanes(),
		Posts:    st.Posts(),
		WindowNs: st.Window(),
		Total:    st.TotalDispatched(),
	}); err != nil {
		return err
	}
	for i := 0; i < st.Lanes(); i++ {
		ls := st.Lane(i)
		row := make([]uint64, st.Lanes())
		for d := range row {
			row[d] = st.Traffic(i, d)
		}
		if err := enc.Encode(shardLaneJSON{
			Record:     "lane",
			Lane:       i,
			Dispatched: ls.Dispatched,
			HeapMax:    ls.HeapMax,
			Sent:       ls.Sent,
			Recv:       ls.Recv,
			Traffic:    row,
		}); err != nil {
			return err
		}
	}
	for i := 0; i < st.Windows(); i++ {
		start, end, dispatch := st.WindowAt(i)
		if err := enc.Encode(shardWindowJSON{
			Record:   "window",
			Window:   i,
			StartNs:  start,
			EndNs:    end,
			Dispatch: dispatch,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
