package report

import (
	"fmt"
	"strings"

	"ccnuma/internal/sim"
)

// ShardStatsTable renders the engine's per-node dispatch attribution as a
// fixed-width ASCII table: dispatch counts (with a proportional bar),
// pending high-water marks and cross-lane traffic per lane, plus the NxN
// traffic matrix when any schedule crossed lanes. Only virtual-time fields
// appear, so the rendering is byte-deterministic run to run.
func ShardStatsTable(st *sim.ShardStats) string {
	var b strings.Builder
	if st == nil || st.Lanes() == 0 {
		return "shard stats: not collected\n"
	}
	n := st.Lanes()
	fmt.Fprintf(&b, "Shard lanes: %d   dispatched=%d posts=%d\n", n, st.TotalDispatched(), st.Posts())

	row(&b, "lane", "dispatched", "heap-max", "sent", "recv")
	for i := 0; i < n; i++ {
		ls := st.Lane(i)
		row(&b, fmt.Sprintf("lane%d", i),
			fmt.Sprintf("%d", ls.Dispatched),
			fmt.Sprintf("%d", ls.HeapMax),
			fmt.Sprintf("%d", ls.Sent),
			fmt.Sprintf("%d", ls.Recv))
	}

	labels := make([]string, n)
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		labels[i] = fmt.Sprintf("lane%d", i)
		values[i] = float64(st.Lane(i).Dispatched)
	}
	bars(&b, labels, values, 40)

	if st.Posts() > 0 {
		fmt.Fprintf(&b, "Cross-lane traffic (src rows -> dst cols):\n")
		cells := make([]string, 0, n+1)
		cells = append(cells, "")
		for d := 0; d < n; d++ {
			cells = append(cells, fmt.Sprintf("->%d", d))
		}
		row(&b, cells...)
		for s := 0; s < n; s++ {
			cells = cells[:0]
			cells = append(cells, fmt.Sprintf("lane%d", s))
			for d := 0; d < n; d++ {
				cells = append(cells, fmt.Sprintf("%d", st.Traffic(s, d)))
			}
			row(&b, cells...)
		}
	}
	return b.String()
}
