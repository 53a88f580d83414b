package trace

import "ccnuma/internal/mem"

// A read chain (Figure 4) is a string of read misses to a page from one
// processor, terminated by a write from any processor to that page. Long
// chains mark pages that would profit from replication.

// ChainAnalysis is the Figure-4 result: for each threshold, the fraction of
// data read misses that belong to chains of at least that length.
type ChainAnalysis struct {
	// Thresholds are the chain-length cut-offs (the paper's X axis).
	Thresholds []int
	// FractionAtLeast[i] is the fraction of data misses in chains of length
	// >= Thresholds[i].
	FractionAtLeast []float64
	// TotalDataMisses is the denominator (read misses considered).
	TotalDataMisses uint64
}

// DefaultThresholds mirrors the paper's log-scale X axis.
var DefaultThresholds = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// ReadChains computes the Figure-4 distribution over the trace's user-mode
// data cache misses. Instruction fetches are excluded (code is trivially
// read-only); TLB records are ignored.
func ReadChains(t *Trace, thresholds []int) ChainAnalysis {
	if len(thresholds) == 0 {
		thresholds = DefaultThresholds
	}
	// open[page][cpu] is the length of the currently-open read chain.
	type key struct {
		page mem.GPage
		cpu  mem.CPUID
	}
	open := map[key]uint64{}
	// hist[l] = number of misses in chains of exactly length l, bucketed by
	// chain length (we accumulate chain lengths as they close).
	var chains []uint64

	closeChain := func(k key) {
		if n := open[k]; n > 0 {
			chains = append(chains, n)
			delete(open, k)
		}
	}

	for _, c := range t.Chunks() {
		for _, r := range c {
			if r.Src != CacheMiss || r.Kind.IsInstr() {
				continue
			}
			if r.Kind.IsWrite() {
				// A write from any processor terminates every open chain on the
				// page.
				for k := range open {
					if k.page == r.Page {
						closeChain(k)
					}
				}
				continue
			}
			open[key{r.Page, r.CPU}]++
		}
	}
	for k := range open {
		closeChain(k)
	}

	var total uint64
	for _, n := range chains {
		total += n
	}
	out := ChainAnalysis{
		Thresholds:      thresholds,
		FractionAtLeast: make([]float64, len(thresholds)),
		TotalDataMisses: total,
	}
	if total == 0 {
		return out
	}
	for i, th := range thresholds {
		var in uint64
		for _, n := range chains {
			if n >= uint64(th) {
				in += n
			}
		}
		out.FractionAtLeast[i] = float64(in) / float64(total)
	}
	return out
}

// FractionAt returns the fraction of misses in chains >= length, using the
// nearest computed threshold at or below length.
func (c ChainAnalysis) FractionAt(length int) float64 {
	best := 0.0
	found := false
	for i, th := range c.Thresholds {
		if th <= length {
			best = c.FractionAtLeast[i]
			found = true
		}
	}
	if !found && len(c.FractionAtLeast) > 0 {
		return c.FractionAtLeast[0]
	}
	return best
}
