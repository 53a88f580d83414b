// Package cache models the processor cache hierarchy: split 32 KB two-way
// L1 instruction and data caches and a unified 512 KB two-way L2, all with
// 128-byte lines, as configured for the FLASH machine in the paper.
//
// Caches are indexed by global logical line (mem.GLine) rather than physical
// address. Correctness under sharing and page movement is preserved by two
// validity stamps carried in every cache entry:
//
//   - a line version, bumped whenever any processor writes the line, which
//     invalidates all other cached copies (directory-based invalidation
//     coherence at line grain);
//   - a page epoch, bumped whenever the kernel migrates or collapses the
//     page, which invalidates every cached line of the page (the physical
//     copy moved, so physically-tagged caches would refetch).
//
// Replication does not bump the epoch: processors still mapped to the master
// keep hitting their cached lines, exactly as on real hardware where the
// master's physical address is unchanged.
package cache

import (
	"fmt"

	"ccnuma/internal/mem"
)

// Validity holds the machine-wide stamps that cache entries are checked
// against: one line-version table indexed by mem.GLine and one page-epoch
// table indexed by mem.GPage. One Validity instance is shared by every cache
// in the machine.
//
// A page starts unhomed (no node has ever held it) and is homed by Assign on
// first residence. Stamps never reset: releasing a page does NOT unhome it,
// and a later residence on another node keeps them, because cached entries
// carrying the old version/epoch pairs may outlive the residence, and
// resetting the stamps would let such a stale entry re-validate against a
// fresh zero epoch.
type Validity struct {
	lineVersion []uint32 // indexed by mem.GLine
	pageEpoch   []uint32 // indexed by mem.GPage
	// home[p] is the node that last held page p's master copy, -1 while the
	// page has never been resident.
	home []int32
}

// NewValidity sizes the stamp tables for a machine of nodes nodes covering
// pages logical pages. A single-node machine has only one place a page can
// live, so every page starts homed on node 0 and can be bumped without an
// Assign.
func NewValidity(pages, nodes int) *Validity {
	v := &Validity{
		lineVersion: make([]uint32, pages*mem.LinesPerPage),
		pageEpoch:   make([]uint32, pages),
		home:        make([]int32, pages),
	}
	if nodes > 1 {
		for p := range v.home {
			v.home[p] = -1
		}
	}
	return v
}

// Pages returns the number of logical pages the tables cover.
func (v *Validity) Pages() int { return len(v.pageEpoch) }

// Home returns the node that last held page p's master copy, -1 while the
// page has never been resident.
func (v *Validity) Home(p mem.GPage) int { return int(v.home[p]) }

// Assign records that page p's master copy lives on node. The kernel calls
// it wherever the master copy's node is decided: first touch, wiring,
// migration, and a collapse that keeps a replica's frame. The stamps
// themselves are machine-wide and do not move.
func (v *Validity) Assign(p mem.GPage, node mem.NodeID) {
	v.home[p] = int32(node)
}

// LineVersion returns the current version of a line. Lines of a
// never-resident page were never written, so they read as version zero.
//
//numalint:hotpath
func (v *Validity) LineVersion(l mem.GLine) uint32 { return v.lineVersion[l] }

// BumpLine registers a write to the line and returns the new version. Every
// cached copy with an older version becomes stale. Writing a line of an
// unhomed page is a kernel bug — a write implies residence implies a home —
// and panics rather than silently minting stamps for a page nobody holds.
//
//numalint:hotpath
func (v *Validity) BumpLine(l mem.GLine) uint32 {
	if v.home[l.Page()] < 0 {
		unhomedWrite(l)
	}
	v.lineVersion[l]++
	return v.lineVersion[l]
}

// unhomedWrite reports a write to a line of a never-resident page — a kernel
// bug (a write implies residence implies a home). Split out of BumpLine so
// the message formatting stays off the hot path.
func unhomedWrite(l mem.GLine) {
	panic(fmt.Sprintf("cache: write to line %d of unhomed page %d", l, l.Page()))
}

// PageEpoch returns the current placement epoch of a page (zero while the
// page has never been resident).
//
//numalint:hotpath
func (v *Validity) PageEpoch(p mem.GPage) uint32 { return v.pageEpoch[p] }

// BumpPage registers a migration, collapse, or release of the page,
// invalidating all cached lines of the page machine-wide. Releasing a page
// that was never resident has nothing cached to invalidate, so an unhomed
// bump is a no-op.
func (v *Validity) BumpPage(p mem.GPage) {
	if v.home[p] >= 0 {
		v.pageEpoch[p]++
	}
}
