package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"hipec/internal/core"
	"hipec/internal/store"
	"hipec/internal/substrate"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []op {
		g := newOpGen(seed, 1, 2, 4, 2048, 1.01, 0.5)
		ops := make([]op, 1000)
		for i := range ops {
			ops[i] = g.next()
			if ops[i].page%4 != 2 {
				t.Fatalf("slot 2 of 4 drew page %d, which it does not own", ops[i].page)
			}
		}
		return ops
	}
	if a, b := draw(7), draw(7); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different requests")
	}
	if a, b := draw(7), draw(8); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds drew the same requests")
	}
	r1, r2 := referenceString(7, 512, 5000, 1.01, 0.3), referenceString(7, 512, 5000, 1.01, 0.3)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same seed made different reference strings")
	}
	if r3 := referenceString(8, 512, 5000, 1.01, 0.3); reflect.DeepEqual(r1, r3) {
		t.Fatal("different seeds made the same reference string")
	}
}

func TestStampDistinguishesVersions(t *testing.T) {
	a, b := make([]byte, 64), make([]byte, 64)
	stamp(a, 0, 3, 1)
	stamp(b, 0, 3, 1)
	if string(a) != string(b) {
		t.Fatal("stamp is not a function of its inputs")
	}
	for _, v := range [][3]int{{1, 3, 1}, {0, 4, 1}, {0, 3, 2}} {
		stamp(b, v[0], v[1], uint64(v[2]))
		if string(a) == string(b) {
			t.Fatalf("stamp %v equals stamp (0, 3, 1)", v)
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 50, 50}, {100, 90, 90}, {1000, 99, 990}, {21, 50, 11},
	} {
		got, err := percentile(seq(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("p%v of 1..%d = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
	for _, c := range []struct {
		n int
		p float64
	}{{999, 99}, {100, 99}, {19, 50}, {0, 50}} {
		if got, err := percentile(seq(c.n), c.p); err == nil {
			t.Errorf("p%v of %d samples = %v, want a refusal", c.p, c.n, got)
		}
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(seq(1000), p); err == nil {
			t.Errorf("p%v accepted", p)
		}
	}
}

func TestRecorderKeepsExactMeanAndBoundedSamples(t *testing.T) {
	r := newRecorder()
	n := 3 * reservoirCap
	for i := 0; i < n; i++ {
		r.add(1000) // 1 us
	}
	if r.n != int64(n) || r.meanUS() != 1 {
		t.Fatalf("n=%d mean=%v, want %d and 1", r.n, r.meanUS(), n)
	}
	if len(r.samples) != reservoirCap {
		t.Fatalf("kept %d samples, want %d", len(r.samples), reservoirCap)
	}
	s := r.summarize()
	if s.err != nil || s.p50 != 1 || s.p99 != 1 {
		t.Fatalf("summary %+v", s)
	}
}

// fakeStore implements every optional store surface and records use.
type fakeStore struct {
	*substrate.MemStore
	deleted, synced bool
}

func (f *fakeStore) DeletePage(k substrate.PageKey) bool {
	f.deleted = true
	return f.MemStore.DeletePage(k)
}
func (f *fakeStore) Sync() error             { f.synced = true; return errors.New("sync result") }
func (f *fakeStore) StoreIO() (int64, int64) { return 11, 22 }

func TestStoreTapForwardsOptionalSurfaces(t *testing.T) {
	f := &fakeStore{MemStore: substrate.NewMemStore(pageSize, true)}
	tap := newStoreTap(f)
	var (
		_ substrate.Deleter = tap
		_ store.Syncer      = tap
		_ store.IOStats     = tap
	)
	key := substrate.PageKey{Object: 1}
	if err := tap.WritePage(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !tap.DeletePage(key) || !f.deleted || f.Contains(key) {
		t.Fatal("DeletePage not forwarded")
	}
	if err := tap.Sync(); err == nil || err.Error() != "sync result" || !f.synced {
		t.Fatalf("Sync not forwarded: %v", err)
	}
	if r, w := tap.StoreIO(); r != 11 || w != 22 {
		t.Fatalf("StoreIO = %d, %d; want 11, 22", r, w)
	}

	// A real backend, through the labeled wrapper store.Open returns.
	b, err := store.Open("file", t.TempDir()+"/pages.dat", pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	tap = newStoreTap(b)
	if err := tap.WritePage(key, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tap.ReadPage(key); err != nil {
		t.Fatal(err)
	}
	if r, w := tap.StoreIO(); r != 1 || w != 1 {
		t.Fatalf("file store IO through the tap = %d reads, %d writes; want 1, 1", r, w)
	}
	if tap.reads.Load() != 1 || tap.writes.Load() != 1 {
		t.Fatalf("tap counted %d reads, %d writes", tap.reads.Load(), tap.writes.Load())
	}
	if err := tap.Sync(); err != nil {
		t.Fatal(err)
	}
	if !tap.DeletePage(key) || tap.Contains(key) {
		t.Fatal("DeletePage not forwarded to the file store")
	}
}

// TestTapsAreTransparent runs one connection at depth 1 through a fixed
// net-thrash-shaped request sequence with and without the store and
// connection taps: the kernel must count the same and return the same
// payloads.
func TestTapsAreTransparent(t *testing.T) {
	sh := netShape{regionPages: 256, pool: 16, payload: pageSize, writeFrac: 0.5, zipfS: 1.01, depth: 1}
	drive := func(traced bool) (core.CacheStats, [32]byte) {
		env, err := setupNet(t.TempDir(), sh, 1, traced)
		if err != nil {
			t.Fatal(err)
		}
		defer env.close()
		before, err := env.snap()
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			env.storeTap.recording.Store(true)
			env.connTap.recording.Store(true)
		}
		res := newLoadRes(0, 0)
		s := env.newSlots(3)[0]
		h := sha256.New()
		for i := 0; i < 3000; i++ {
			env.do(s, res)
			h.Write(s.buf)
		}
		if traced {
			env.storeTap.recording.Store(false)
			env.connTap.recording.Store(false)
		}
		after, err := env.snap()
		if err != nil {
			t.Fatal(err)
		}
		if res.failed.Load() != 0 || res.mismatches.Load() != 0 {
			t.Fatalf("traced=%v: %d failed, %d mismatched", traced, res.failed.Load(), res.mismatches.Load())
		}
		if traced {
			d := statsDelta(before.stats, after.stats)
			if r := after.storeReads - before.storeReads; r != d.PageIns || r == 0 {
				t.Fatalf("store reads %d, page-ins %d", r, d.PageIns)
			}
			if n := env.connTap.residence.n; n != 3000 {
				t.Fatalf("residence timed for %d requests, want 3000", n)
			}
		}
		var sum [32]byte
		copy(sum[:], h.Sum(nil))
		return after.stats, sum
	}
	plainStats, plainSum := drive(false)
	tracedStats, tracedSum := drive(true)
	if plainStats != tracedStats {
		t.Fatalf("counts differ:\nplain  %+v\ntraced %+v", plainStats, tracedStats)
	}
	if plainSum != tracedSum {
		t.Fatal("payloads differ")
	}
	if plainStats.PageIns == 0 || plainStats.PageOuts == 0 {
		t.Fatalf("sequence never reached the store: %+v", plainStats)
	}
}

// TestPin pins the process to each allowed CPU in turn, as the workloads
// do, and releases it to all of them.
func TestPin(t *testing.T) {
	cpus := cpuTurns(allowedCPUs())
	if len(cpus) == 0 {
		t.Skip("CPU affinity not available")
	}
	runtime.LockOSThread() // so allowedCPUs reads the same thread each time
	defer runtime.UnlockOSThread()
	for i, c := range cpus {
		if err := cpus.turn(i); err != nil {
			t.Fatalf("pin to CPU %d: %v", c, err)
		}
		if got := allowedCPUs(); !reflect.DeepEqual(got, []int{c}) {
			t.Fatalf("pinned to CPU %d, thread may run on %v", c, got)
		}
	}
	if err := cpus.release(); err != nil {
		t.Fatal(err)
	}
	if got := allowedCPUs(); !reflect.DeepEqual(got, []int(cpus)) {
		t.Fatalf("released to %v, want %v", got, cpus)
	}
}

func TestGroupMeans(t *testing.T) {
	if got, want := groupMeans([]float64{1, 3, 5, 7, 9}, 2), []float64{2, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestParseHipecvm(t *testing.T) {
	out := `policy: fifo2 (minFrame 512)
workload: trace:refs.trace over 4096 pages, 200000 accesses

accesses:        200000
faults:          67874 (33.94%)
page-ins:        56344
page-outs:       26256
virtual elapsed: 7m38.73350602s
policy commands: 2125410 (1.8 per fault)
`
	got, err := parseHipecvm(out)
	if err != nil {
		t.Fatal(err)
	}
	want := simCounts{accesses: 200000, faults: 67874, pageIns: 56344, pageOuts: 26256, commands: 2125410, elapsed: "7m38.73350602s"}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if _, err := parseHipecvm("accesses: 1\n"); err == nil {
		t.Fatal("a truncated report parsed")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric tables here and the
// repository's BENCHMARK.json naming the same metrics with the same units
// and directions.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit, Better string }) {
		var want, have []string
		for _, d := range defs {
			want = append(want, d.name+" "+d.unit+" "+d.better)
		}
		for _, g := range got {
			have = append(have, g.Name+" "+g.Unit+" "+g.Better)
		}
		sort.Strings(want)
		sort.Strings(have)
		if !reflect.DeepEqual(want, have) {
			t.Errorf("%s metrics differ:\ncode %v\njson %v", kind, want, have)
		}
	}
	check("end-to-end", endToEnd, bj.EndToEnd)
	check("per-layer", perLayer, bj.PerLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := []string{"net-hot", "net-thrash", "sim-faults"}; !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}
