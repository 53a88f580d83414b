package trace

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"ccnuma/internal/mem"
	"ccnuma/internal/sim"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(at int64, page uint32, cpu uint8, kind uint8, kernel bool, tlbm bool) bool {
		if at < 0 {
			at = -at
		}
		r := Record{
			At:     sim.Time(at),
			Page:   mem.GPage(page),
			CPU:    mem.CPUID(cpu),
			Kind:   mem.AccessKind(kind % 3),
			Kernel: kernel,
		}
		if tlbm {
			r.Src = TLBMiss
		}
		var buf [recordSize]byte
		encode(buf[:], r)
		return decode(buf[:]) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr := &Trace{}
	rng := sim.NewRand(1)
	for i := 0; i < 1000; i++ {
		tr.Append(Record{
			At:     sim.Time(i * 10),
			Page:   mem.GPage(rng.Intn(100)),
			CPU:    mem.CPUID(rng.Intn(8)),
			Kind:   mem.AccessKind(rng.Intn(3)),
			Kernel: rng.Bool(0.3),
			Src:    Source(rng.Intn(2)),
		})
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 1000*recordSize {
		t.Fatalf("encoded size = %d, want %d", buf.Len(), 1000*recordSize)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("round trip mismatch")
	}
}

// flat copies the trace's records into one slice, in order.
func flat(t *Trace) []Record {
	var out []Record
	for _, c := range t.Chunks() {
		out = append(out, c...)
	}
	return out
}

func TestRecordIs24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Record{}); n != 24 {
		t.Fatalf("sizeof(Record) = %d, want 24", n)
	}
}

// TestChunkBoundaries drives every whole-trace operation across chunk
// boundaries: 2 chunks + 1 record, with timestamps shuffled inside a small
// window so Sort must move records between chunks and keep equal times in
// append order.
func TestChunkBoundaries(t *testing.T) {
	const n = 2*chunkLen + 1
	rng := sim.NewRand(7)
	want := make([]Record, n)
	tr := &Trace{}
	for i := range want {
		want[i] = Record{
			At:   sim.Time(i/4 + rng.Intn(64)),
			CPU:  mem.CPUID(rng.Intn(256)),
			Page: mem.GPage(i),
			Kind: mem.AccessKind(rng.Intn(3)),
			Src:  Source(rng.Intn(2)),
		}
		tr.Append(want[i])
	}
	if tr.Len() != n || len(tr.Chunks()) != 3 {
		t.Fatalf("len %d in %d chunks, want %d in 3", tr.Len(), len(tr.Chunks()), n)
	}
	tr.Sort()
	slices.SortStableFunc(want, func(a, b Record) int { return cmp.Compare(a.At, b.At) })
	if !slices.Equal(flat(tr), want) {
		t.Fatal("chunked Sort differs from a flat stable sort")
	}

	keep := func(r Record) bool { return r.Page%3 == 0 }
	var kept []Record
	for _, r := range want {
		if keep(r) {
			kept = append(kept, r)
		}
	}
	if !slices.Equal(flat(tr.Filter(keep)), kept) {
		t.Fatal("Filter differs across chunk boundaries")
	}
	if tr.Duration() != want[n-1].At {
		t.Fatalf("Duration = %v, want %v", tr.Duration(), want[n-1].At)
	}
	if tr.MaxPage() != n {
		t.Fatalf("MaxPage = %d, want %d", tr.MaxPage(), n)
	}

	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(flat(got), want) {
		t.Fatal("Write/Read round trip differs across chunk boundaries")
	}
}

func TestFromRecordsCopies(t *testing.T) {
	rs := []Record{{At: 1, Page: 2}, {At: 3, Page: 4}}
	tr := FromRecords(rs)
	rs[0].Page = 9
	if got := flat(tr); len(got) != 2 || got[0].Page != 2 || got[1].Page != 4 {
		t.Fatalf("FromRecords = %+v", got)
	}
}

// TestWriteRejectsWideCPU: the format stores the CPU in one byte, so a CPU
// outside 0-255 is an error naming the record, and nothing is written.
func TestWriteRejectsWideCPU(t *testing.T) {
	for _, cpu := range []mem.CPUID{300, -1} {
		tr := FromRecords([]Record{{CPU: 3}, {CPU: 255}, {CPU: cpu}, {CPU: 400}})
		var buf bytes.Buffer
		err := tr.Write(&buf)
		if err == nil {
			t.Fatalf("cpu %d: Write accepted it", cpu)
		}
		if msg := err.Error(); !strings.Contains(msg, "record 2") {
			t.Fatalf("cpu %d: error %q does not name record 2", cpu, msg)
		}
		if buf.Len() != 0 {
			t.Fatalf("cpu %d: %d bytes written before the error", cpu, buf.Len())
		}
	}
}

func TestReadRejectsShortRecord(t *testing.T) {
	if _, err := Read(bytes.NewReader(make([]byte, recordSize+3))); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestFilters(t *testing.T) {
	tr := &Trace{}
	tr.Append(Record{Src: CacheMiss, Kernel: false})
	tr.Append(Record{Src: TLBMiss, Kernel: false})
	tr.Append(Record{Src: CacheMiss, Kernel: true})
	if tr.CacheMisses().Len() != 2 || tr.TLBMisses().Len() != 1 {
		t.Fatal("source filters wrong")
	}
	if tr.KernelOnly().Len() != 1 || tr.UserOnly().Len() != 2 {
		t.Fatal("mode filters wrong")
	}
}

func TestDurationAndMaxPage(t *testing.T) {
	tr := &Trace{}
	if tr.Duration() != 0 || tr.MaxPage() != 0 {
		t.Fatal("empty trace stats wrong")
	}
	tr.Append(Record{At: 5, Page: 3})
	tr.Append(Record{At: 9, Page: 7})
	if tr.Duration() != 9 || tr.MaxPage() != 8 {
		t.Fatalf("duration=%v maxpage=%d", tr.Duration(), tr.MaxPage())
	}
}

func readRec(at int, cpu int, page int) Record {
	return Record{At: sim.Time(at), CPU: mem.CPUID(cpu), Page: mem.GPage(page), Kind: mem.DataRead}
}

func writeRec(at int, cpu int, page int) Record {
	return Record{At: sim.Time(at), CPU: mem.CPUID(cpu), Page: mem.GPage(page), Kind: mem.DataWrite}
}

func TestReadChainsBasic(t *testing.T) {
	tr := &Trace{}
	// CPU0 reads page 1 four times, then CPU1 writes it: one chain of 4.
	for i := 0; i < 4; i++ {
		tr.Append(readRec(i, 0, 1))
	}
	tr.Append(writeRec(10, 1, 1))
	// CPU2 reads page 2 twice, never written: chain of 2.
	tr.Append(readRec(20, 2, 2))
	tr.Append(readRec(21, 2, 2))
	c := ReadChains(tr, []int{1, 2, 4, 8})
	if c.TotalDataMisses != 6 {
		t.Fatalf("total = %d, want 6 (writes excluded)", c.TotalDataMisses)
	}
	want := []float64{1.0, 1.0, 4.0 / 6.0, 0}
	for i := range want {
		if got := c.FractionAtLeast[i]; got != want[i] {
			t.Errorf("threshold %d: %v, want %v", c.Thresholds[i], got, want[i])
		}
	}
}

func TestReadChainsWriteTerminatesAllCPUs(t *testing.T) {
	tr := &Trace{}
	tr.Append(readRec(0, 0, 1))
	tr.Append(readRec(1, 1, 1))
	tr.Append(writeRec(2, 0, 1)) // terminates both CPUs' chains
	tr.Append(readRec(3, 0, 1))
	c := ReadChains(tr, []int{1, 2})
	// Three chains of length 1 each.
	if c.TotalDataMisses != 3 {
		t.Fatalf("total = %d", c.TotalDataMisses)
	}
	if c.FractionAtLeast[1] != 0 {
		t.Fatalf("no chain should reach length 2, got %v", c.FractionAtLeast[1])
	}
}

func TestReadChainsIgnoresInstrAndTLB(t *testing.T) {
	tr := &Trace{}
	tr.Append(Record{Kind: mem.InstrFetch, Page: 1})
	tr.Append(Record{Kind: mem.DataRead, Page: 1, Src: TLBMiss})
	c := ReadChains(tr, nil)
	if c.TotalDataMisses != 0 {
		t.Fatalf("counted %d misses, want 0", c.TotalDataMisses)
	}
}

func TestReadChainsTotalsEqualDataReadMisses(t *testing.T) {
	rng := sim.NewRand(3)
	tr := &Trace{}
	var reads uint64
	for i := 0; i < 5000; i++ {
		k := mem.DataRead
		if rng.Bool(0.2) {
			k = mem.DataWrite
		} else {
			reads++
		}
		tr.Append(Record{At: sim.Time(i), CPU: mem.CPUID(rng.Intn(4)),
			Page: mem.GPage(rng.Intn(30)), Kind: k})
	}
	c := ReadChains(tr, nil)
	if c.TotalDataMisses != reads {
		t.Fatalf("chain totals %d != read misses %d", c.TotalDataMisses, reads)
	}
	// Monotone non-increasing CDF.
	for i := 1; i < len(c.FractionAtLeast); i++ {
		if c.FractionAtLeast[i] > c.FractionAtLeast[i-1] {
			t.Fatal("chain CDF not monotone")
		}
	}
}

func TestFractionAt(t *testing.T) {
	c := ChainAnalysis{Thresholds: []int{1, 512}, FractionAtLeast: []float64{1.0, 0.6}}
	if got := c.FractionAt(512); got != 0.6 {
		t.Fatalf("FractionAt(512) = %v", got)
	}
	if got := c.FractionAt(600); got != 0.6 {
		t.Fatalf("FractionAt(600) = %v", got)
	}
	if got := c.FractionAt(1); got != 1.0 {
		t.Fatalf("FractionAt(1) = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	tr := &Trace{}
	tr.Append(Record{CPU: 0, Page: 1, Kind: mem.DataRead})
	tr.Append(Record{CPU: 0, Page: 1, Kind: mem.DataWrite, Kernel: true})
	tr.Append(Record{CPU: 1, Page: 2, Kind: mem.InstrFetch})
	tr.Append(Record{CPU: 1, Page: 2, Src: TLBMiss, Kind: mem.DataRead})
	s := Summarize(tr, 2)
	if s.Records != 4 || s.CacheMisses != 3 || s.TLBMisses != 1 {
		t.Fatalf("summary counts: %+v", s)
	}
	if s.Reads != 1 || s.Writes != 1 || s.IFetches != 1 || s.KernelMisses != 1 {
		t.Fatalf("kind split: %+v", s)
	}
	if s.Pages != 2 || s.PerCPU[0] != 2 || s.PerCPU[1] != 1 {
		t.Fatalf("page/cpu split: %+v", s)
	}
	if len(s.HottestPages) != 2 || s.HottestPages[0].Page != 1 || s.HottestPages[0].Count != 2 {
		t.Fatalf("hottest: %+v", s.HottestPages)
	}
	if len(s.String()) == 0 {
		t.Fatal("empty render")
	}
}

func TestSummarizeNoTop(t *testing.T) {
	tr := &Trace{}
	tr.Append(Record{Page: 1, Kind: mem.DataRead})
	s := Summarize(tr, 0)
	if s.HottestPages != nil {
		t.Fatal("hottest pages collected with top=0")
	}
}
