// Package trace defines the miss-trace format of Section 8: the paper
// non-intrusively records every second-level cache miss and every TLB miss
// (processor, page, read/write, user/kernel, timestamp) and drives a policy
// simulator from the traces. This package provides the record type, a
// compact binary encoding, and the read-chain analysis of Figure 4.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

// Source distinguishes the two miss streams in a trace.
type Source uint8

const (
	// CacheMiss records a second-level cache miss.
	CacheMiss Source = iota
	// TLBMiss records a TLB miss.
	TLBMiss
)

// Record is one miss event. CPU sits next to At so the record packs into
// 24 bytes.
type Record struct {
	At     sim.Time
	CPU    mem.CPUID
	Page   mem.GPage
	Kind   mem.AccessKind
	Kernel bool
	Src    Source
}

// A trace stores its records in fixed-size chunks (4096 records, 96 KiB), so
// its memory follows the records it holds and an appended record is never
// copied or re-grown.
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// Trace is an in-memory miss trace, ordered by time. The zero value is an
// empty trace.
type Trace struct {
	// chunks holds the records in order; every chunk but the last is full.
	chunks [][]Record
	n      int
}

// FromRecords returns a trace holding a copy of rs, in order.
func FromRecords(rs []Record) *Trace {
	t := &Trace{}
	for _, r := range rs {
		t.Append(r)
	}
	return t
}

// Append adds a record. It rides the simulator's miss path: a new chunk is
// allocated only when the current one is full.
//
//numalint:hotpath
func (t *Trace) Append(r Record) {
	if t.n&chunkMask == 0 {
		t.addChunk()
	}
	last := len(t.chunks) - 1
	t.chunks[last] = append(t.chunks[last], r)
	t.n++
}

func (t *Trace) addChunk() { t.chunks = append(t.chunks, make([]Record, 0, chunkLen)) }

// Chunks returns the records in order as consecutive slices, for iteration
// with two nested range loops. The slices alias the trace; callers must not
// modify them.
func (t *Trace) Chunks() [][]Record { return t.chunks }

// byAt indexes a trace's records across chunk boundaries for sort.Stable.
type byAt Trace

func (s *byAt) Len() int           { return s.n }
func (s *byAt) rec(i int) *Record  { return &s.chunks[i>>chunkShift][i&chunkMask] }
func (s *byAt) Less(i, j int) bool { return s.rec(i).At < s.rec(j).At }
func (s *byAt) Swap(i, j int)      { a, b := s.rec(i), s.rec(j); *a, *b = *b, *a }

// Sort orders the records by time (stable), in place. The machine simulator
// emits records per-CPU in slices, so cross-CPU ordering needs one final
// sort.
func (t *Trace) Sort() { sort.Stable((*byAt)(t)) }

// Len returns the record count.
func (t *Trace) Len() int { return t.n }

// Filter returns the records matching keep, preserving order.
func (t *Trace) Filter(keep func(Record) bool) *Trace {
	out := &Trace{}
	for _, c := range t.chunks {
		for _, r := range c {
			if keep(r) {
				out.Append(r)
			}
		}
	}
	return out
}

// CacheMisses returns only the cache-miss records.
func (t *Trace) CacheMisses() *Trace {
	return t.Filter(func(r Record) bool { return r.Src == CacheMiss })
}

// TLBMisses returns only the TLB-miss records.
func (t *Trace) TLBMisses() *Trace {
	return t.Filter(func(r Record) bool { return r.Src == TLBMiss })
}

// KernelOnly returns only kernel-mode records (the Section 8.2 study).
func (t *Trace) KernelOnly() *Trace {
	return t.Filter(func(r Record) bool { return r.Kernel })
}

// UserOnly returns only user-mode records.
func (t *Trace) UserOnly() *Trace {
	return t.Filter(func(r Record) bool { return !r.Kernel })
}

// Duration returns the time of the last record (traces start at 0).
func (t *Trace) Duration() sim.Time {
	if t.n == 0 {
		return 0
	}
	last := t.chunks[len(t.chunks)-1]
	return last[len(last)-1].At
}

// MaxPage returns the highest page id referenced plus one (a table size).
func (t *Trace) MaxPage() int {
	if t.n == 0 {
		return 0
	}
	max := mem.GPage(0)
	for _, c := range t.chunks {
		for _, r := range c {
			if r.Page > max {
				max = r.Page
			}
		}
	}
	return int(max) + 1
}

const recordSize = 16

func encode(buf []byte, r Record) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(r.At))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(r.Page))
	buf[12] = byte(r.CPU)
	flags := byte(r.Kind) & 0x3
	if r.Kernel {
		flags |= 1 << 2
	}
	if r.Src == TLBMiss {
		flags |= 1 << 3
	}
	buf[13] = flags
	buf[14], buf[15] = 0, 0
}

func decode(buf []byte) Record {
	r := Record{
		At:   sim.Time(binary.LittleEndian.Uint64(buf[0:8])),
		Page: mem.GPage(binary.LittleEndian.Uint32(buf[8:12])),
		CPU:  mem.CPUID(buf[12]),
	}
	flags := buf[13]
	r.Kind = mem.AccessKind(flags & 0x3)
	r.Kernel = flags&(1<<2) != 0
	if flags&(1<<3) != 0 {
		r.Src = TLBMiss
	}
	return r
}

// maxCPU is the largest CPU id the format's one-byte CPU field holds.
const maxCPU = 255

// Write encodes the trace to w in the 16-byte binary record format. A
// record whose CPU does not fit the one-byte field is an error, reported
// before anything is written.
func (t *Trace) Write(w io.Writer) error {
	for ci, c := range t.chunks {
		for i, r := range c {
			if r.CPU < 0 || r.CPU > maxCPU {
				return fmt.Errorf("trace: record %d: cpu %d outside the format's 0-%d",
					ci*chunkLen+i, r.CPU, maxCPU)
			}
		}
	}
	bw := bufio.NewWriter(w)
	var buf [recordSize]byte
	for _, c := range t.chunks {
		for _, r := range c {
			encode(buf[:], r)
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read decodes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	t := &Trace{}
	var buf [recordSize]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: short record: %w", err)
		}
		t.Append(decode(buf[:]))
	}
}
