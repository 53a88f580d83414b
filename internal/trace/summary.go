package trace

import (
	"fmt"
	"sort"
	"strings"

	"ccnuma/internal/mem"
)

// Summary is an aggregate description of a trace: the counts the paper's
// workload characterisation (Table 3's miss columns) and Section 8 analyses
// start from.
type Summary struct {
	Records     int
	CacheMisses uint64
	TLBMisses   uint64
	// Cache-miss splits.
	Reads, Writes, IFetches uint64
	KernelMisses            uint64
	// PerCPU counts cache misses by processor.
	PerCPU map[mem.CPUID]uint64
	// Pages is the number of distinct pages with at least one cache miss.
	Pages int
	// HottestPages lists the top pages by cache-miss count, descending.
	HottestPages []PageCount
}

// PageCount pairs a page with its cache-miss count.
type PageCount struct {
	Page  mem.GPage
	Count uint64
}

// Summarize scans the trace once and aggregates it. top bounds the hottest-
// pages list (0 = none).
func Summarize(t *Trace, top int) Summary {
	s := Summary{Records: t.Len(), PerCPU: map[mem.CPUID]uint64{}}
	perPage := map[mem.GPage]uint64{}
	for _, c := range t.Chunks() {
		for _, r := range c {
			if r.Src == TLBMiss {
				s.TLBMisses++
				continue
			}
			s.CacheMisses++
			s.PerCPU[r.CPU]++
			perPage[r.Page]++
			switch r.Kind {
			case mem.DataWrite:
				s.Writes++
			case mem.InstrFetch:
				s.IFetches++
			default:
				s.Reads++
			}
			if r.Kernel {
				s.KernelMisses++
			}
		}
	}
	s.Pages = len(perPage)
	if top > 0 {
		s.HottestPages = make([]PageCount, 0, len(perPage))
		for p, n := range perPage {
			s.HottestPages = append(s.HottestPages, PageCount{Page: p, Count: n})
		}
		sort.Slice(s.HottestPages, func(i, j int) bool {
			if s.HottestPages[i].Count != s.HottestPages[j].Count {
				return s.HottestPages[i].Count > s.HottestPages[j].Count
			}
			return s.HottestPages[i].Page < s.HottestPages[j].Page
		})
		if len(s.HottestPages) > top {
			s.HottestPages = s.HottestPages[:top]
		}
	}
	return s
}

// String renders the summary in a compact human-readable block.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "records %d: %d cache misses (%d read / %d write / %d ifetch, %d kernel), %d TLB misses, %d pages touched\n",
		s.Records, s.CacheMisses, s.Reads, s.Writes, s.IFetches, s.KernelMisses, s.TLBMisses, s.Pages)
	if len(s.PerCPU) > 0 {
		cpus := make([]int, 0, len(s.PerCPU))
		for c := range s.PerCPU {
			cpus = append(cpus, int(c))
		}
		sort.Ints(cpus)
		b.WriteString("per-CPU cache misses:")
		for _, c := range cpus {
			fmt.Fprintf(&b, " cpu%d=%d", c, s.PerCPU[mem.CPUID(c)])
		}
		b.WriteByte('\n')
	}
	for i, pc := range s.HottestPages {
		fmt.Fprintf(&b, "hot page #%d: page %d with %d misses\n", i+1, pc.Page, pc.Count)
	}
	return b.String()
}
