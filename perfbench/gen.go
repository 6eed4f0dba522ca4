package main

import (
	"encoding/binary"
	"math/rand"

	"hipec/internal/trace"
	"hipec/internal/workload"
)

// mix derives a well-spread 63-bit seed from the run seed and a stream
// label (splitmix64 finalizer), so per-slot streams are independent but
// fully determined by --seed.
func mix(seed int64, label ...int) int64 {
	z := uint64(seed)
	for _, l := range label {
		z += 0x9E3779B97F4A7C15 + uint64(l)
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return int64(z >> 1)
}

// op is one generated request.
type op struct {
	page  int
	write bool
}

// opGen is one in-flight slot's request stream. A slot owns the pages
// congruent to its index modulo the slot count, so no two slots of a
// connection ever have the same page in flight and the last acknowledged
// write of every page is unambiguous.
type opGen struct {
	stride, offset int
	pages          workload.Generator // over the slot's own pages
	writes         *rand.Rand
	writeFrac      float64
}

// newOpGen builds the stream of slot `slot` of connection `conn`: pages
// drawn uniformly (zipfS == 0) or Zipf(zipfS)-skewed over the slot's share
// of a regionPages-page region, each a write with probability writeFrac.
func newOpGen(seed int64, conn, slot, slots, regionPages int, zipfS, writeFrac float64) *opGen {
	own := int64(regionPages / slots)
	var pages workload.Generator
	if zipfS > 0 {
		pages = workload.NewZipf(own, zipfS, mix(seed, 1, conn, slot))
	} else {
		pages = workload.NewRandom(own, 0, mix(seed, 1, conn, slot))
	}
	return &opGen{
		stride:    slots,
		offset:    slot,
		pages:     pages,
		writes:    rand.New(rand.NewSource(mix(seed, 2, conn, slot))),
		writeFrac: writeFrac,
	}
}

func (g *opGen) next() op {
	p := int(g.pages.Next().Page)
	return op{page: p*g.stride + g.offset, write: g.writes.Float64() < g.writeFrac}
}

// referenceString is the sim-faults input: n Zipf(zipfS) references over
// pages pages, each a write with probability writeFrac.
func referenceString(seed int64, pages, n int, zipfS, writeFrac float64) *trace.Trace {
	z := workload.NewZipf(int64(pages), zipfS, mix(seed, 3))
	w := rand.New(rand.NewSource(mix(seed, 4)))
	t := &trace.Trace{Pages: int64(pages), Records: make([]trace.Record, n)}
	for i := range t.Records {
		t.Records[i] = trace.Record{Page: z.Next().Page, Write: w.Float64() < writeFrac}
	}
	return t
}

// stamp fills buf with the recognizable content of version `version` of
// page `page` written by connection `conn`: 16-byte blocks of (conn, page,
// version, block index), so a payload from another page, connection or
// version, or a torn or shifted one, never compares equal.
func stamp(buf []byte, conn, page int, version uint64) {
	var blk [16]byte
	binary.LittleEndian.PutUint32(blk[0:], uint32(conn))
	binary.LittleEndian.PutUint32(blk[4:], uint32(page))
	for i := 0; i < len(buf); i += len(blk) {
		binary.LittleEndian.PutUint64(blk[8:], version<<16|uint64(i/len(blk)))
		copy(buf[i:], blk[:])
	}
}
