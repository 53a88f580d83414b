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

// Validity holds the stamps cache entries are checked against. Like the
// directory state it stands in for, it is sharded by home node: a page's
// stamps live with the node holding its master copy, mirroring FLASH's
// per-node directory controllers, and the kernel rehomes them when a
// migration or collapse moves the master. One Validity instance is shared by
// every cache in the machine, but any single page's stamps are owned by
// exactly one node.
//
// A page starts unhomed (no node has ever held it) and is homed by Assign on
// first residence. Releasing a page does NOT unhome it: the stamps park on
// the last home, because cached entries carrying the old version/epoch pairs
// may outlive the residence, and resetting the stamps would let such a stale
// entry re-validate against a fresh zero epoch. Rehoming copies the stamps
// verbatim for the same reason.
type Validity struct {
	// home[p] is the shard (home node) holding page p's stamps, -1 while the
	// page has never been resident. slot[p] is the page's slot in that
	// shard's tables.
	home []int32
	slot []int32

	shards []validityShard
}

// validityShard is one home node's stamp tables, indexed by slot.
type validityShard struct {
	lineVersion []uint32 // mem.LinesPerPage entries per slot
	pageEpoch   []uint32
	free        []int32 // recycled slots (LIFO, deterministic)
}

// NewValidity sizes the stamp tables for a machine of nodes homes covering
// pages logical pages. A single-node machine has nowhere to rehome to, so
// every page is pre-homed on node 0 — the degenerate machine-wide filter,
// byte-compatible with the unsharded structure this replaces.
func NewValidity(pages, nodes int) *Validity {
	if nodes < 1 {
		nodes = 1
	}
	v := &Validity{
		home:   make([]int32, pages),
		slot:   make([]int32, pages),
		shards: make([]validityShard, nodes),
	}
	if nodes == 1 {
		sh := &v.shards[0]
		sh.lineVersion = make([]uint32, pages*mem.LinesPerPage)
		sh.pageEpoch = make([]uint32, pages)
		for p := range v.slot {
			v.slot[p] = int32(p)
		}
		return v
	}
	for p := range v.home {
		v.home[p] = -1
	}
	return v
}

// Pages returns the number of logical pages the tables cover.
func (v *Validity) Pages() int { return len(v.home) }

// Home returns the node currently holding page p's stamps, -1 while the
// page has never been resident.
func (v *Validity) Home(p mem.GPage) int { return int(v.home[p]) }

// Assign homes page p's stamps on node (modulo the shard count), rehoming —
// copying every stamp verbatim — if another node held them. The kernel
// calls it wherever the master copy's node is decided: first touch, wiring,
// migration, and a collapse that keeps a replica's frame.
func (v *Validity) Assign(p mem.GPage, node mem.NodeID) {
	dst := int32(int(node) % len(v.shards))
	if v.home[p] == dst {
		return
	}
	sh := &v.shards[dst]
	var s int32
	if n := len(sh.free); n > 0 {
		s = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		s = int32(len(sh.pageEpoch))
		sh.pageEpoch = append(sh.pageEpoch, 0)
		sh.lineVersion = append(sh.lineVersion, make([]uint32, mem.LinesPerPage)...)
	}
	lines := sh.lineVersion[int(s)*mem.LinesPerPage:]
	if old := v.home[p]; old >= 0 {
		osh := &v.shards[old]
		os := v.slot[p]
		sh.pageEpoch[s] = osh.pageEpoch[os]
		copy(lines[:mem.LinesPerPage], osh.lineVersion[int(os)*mem.LinesPerPage:])
		osh.free = append(osh.free, os)
	} else {
		sh.pageEpoch[s] = 0
		for i := 0; i < mem.LinesPerPage; i++ {
			lines[i] = 0
		}
	}
	v.home[p] = dst
	v.slot[p] = s
}

// LineVersion returns the current version of a line. Lines of a
// never-resident page were never written, so they read as version zero.
//
//numalint:hotpath
func (v *Validity) LineVersion(l mem.GLine) uint32 {
	p := l.Page()
	h := v.home[p]
	if h < 0 {
		return 0
	}
	sh := &v.shards[h]
	return sh.lineVersion[int(v.slot[p])*mem.LinesPerPage+int(l)%mem.LinesPerPage]
}

// BumpLine registers a write to the line and returns the new version. Every
// cached copy with an older version becomes stale. Writing a line of an
// unhomed page is a kernel bug — a write implies residence implies a home —
// and panics rather than silently minting stamps nobody owns.
//
//numalint:hotpath
func (v *Validity) BumpLine(l mem.GLine) uint32 {
	p := l.Page()
	h := v.home[p]
	if h < 0 {
		unhomedWrite(l)
	}
	sh := &v.shards[h]
	i := int(v.slot[p])*mem.LinesPerPage + int(l)%mem.LinesPerPage
	sh.lineVersion[i]++
	return sh.lineVersion[i]
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
func (v *Validity) PageEpoch(p mem.GPage) uint32 {
	h := v.home[p]
	if h < 0 {
		return 0
	}
	return v.shards[h].pageEpoch[v.slot[p]]
}

// BumpPage registers a migration, collapse, or release of the page,
// invalidating all cached lines of the page machine-wide. Releasing a page
// that was never resident has nothing cached to invalidate, so an unhomed
// bump is a no-op.
func (v *Validity) BumpPage(p mem.GPage) {
	if h := v.home[p]; h >= 0 {
		v.shards[h].pageEpoch[v.slot[p]]++
	}
}
