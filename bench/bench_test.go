package main

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/prefetcher/fetch"
	"repro/prefetcher/fetch/httpfetch"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	v := seq(100)
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.5); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	// p99 of 1000 samples is rank 990: exactly 10 beyond it.
	if v, ok := tailPercentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1000 = %v, %v; want 990, true", v, ok)
	}
	// One sample fewer leaves 9 beyond rank 990.
	if v, ok := tailPercentile(seq(999), 0.99); ok || v != 0 {
		t.Errorf("p99 of 999 = %v, %v; want 0, false", v, ok)
	}
	if _, ok := tailPercentile(seq(5000), 0.999); ok {
		t.Error("p999 of 5000 reported with 5 samples beyond it")
	}
	if _, ok := tailPercentile(nil, 0.9); ok {
		t.Error("p90 of nothing reported")
	}
}

func TestMedianQuartilesSpread(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 12, 11, 30, 13], n=4) == [10.5, 12.0, 21.5]
	q1, q2, q3 = quartiles([]float64{10, 12, 11, 30, 13})
	if q1 != 10.5 || q2 != 12 || q3 != 21.5 {
		t.Errorf("quartiles = %v %v %v, want 10.5 12 21.5", q1, q2, q3)
	}
	if got, want := spread(seq(10)), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
	if got := p50([]float64{3, 1, 2, 10}); got != 2 {
		t.Errorf("p50(3,1,2,10) = %v, want the nearest-rank 2", got)
	}
}

func TestWorseFollowsDirection(t *testing.T) {
	lower := def{Better: "lower"}
	higher := def{Better: "higher"}
	if got := worse(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100→110 = %v, want 0.10", got)
	}
	if got := worse(higher, 100, 110); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("higher-is-better 100→110 = %v, want -0.10", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	line := "4242 (pre fetch) d) S 1 4242 4242 0 -1 4194560 1234 0 0 0 777 333 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	pt, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if pt.UserTicks != 777 || pt.SysTicks != 333 || pt.Threads != 9 {
		t.Errorf("parsed %+v, want utime 777 stime 333 threads 9", pt)
	}
	if _, err := parseProcStat("4242 prefetchd S 1"); err == nil {
		t.Error("a line without ')' parsed")
	}
	if _, err := parseProcStat("4242 (x) S 1 2 3"); err == nil {
		t.Error("a short line parsed")
	}
}

func TestParseProcStatus(t *testing.T) {
	text := "Name:\tprefetchd\nVmPeak:\t 1234 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   18000 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t25\n"
	ps := parseProcStatus(text)
	want := procStatus{VmHWMKB: 20480, VmRSSKB: 18000, VoluntaryCS: 1500, InvoluntaryCS: 25}
	if ps != want {
		t.Errorf("parsed %+v, want %+v", ps, want)
	}
}

func TestParseCPUSteal(t *testing.T) {
	text := "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\n"
	steal, total, err := parseCPUSteal(text)
	if err != nil {
		t.Fatal(err)
	}
	if steal != 30 || total != 1000 {
		t.Errorf("steal %d of %d, want 30 of 1000", steal, total)
	}
	if _, _, err := parseCPUSteal("intr 1 2 3\n"); err == nil {
		t.Error("a file without a cpu line parsed")
	}
}

func TestParseServingLine(t *testing.T) {
	addr, ok := parseServingLine("2026/09/30 06:00:00 prefetchd: serving on 127.0.0.1:41237 (1 spaces)")
	if !ok || addr != "127.0.0.1:41237" {
		t.Errorf("got %q, %v", addr, ok)
	}
	if _, ok := parseServingLine("prefetchd: stopped"); ok {
		t.Error("a line without the marker parsed")
	}
}

func TestParseStats(t *testing.T) {
	st, err := parseStats([]byte(`{"uptime_seconds": 1.5, "spaces": {"default": {"Requests": 10, "Hits": 7, "Misses": 3, "Backends": [{"Name": "origin", "Demand": 3}]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 10 || st.Hits != 7 || st.Misses != 3 || len(st.Backends) != 1 || st.Backends[0].Demand != 3 {
		t.Errorf("parsed %+v", st)
	}
	if _, err := parseStats([]byte(`{"spaces": {}}`)); err == nil {
		t.Error("a reply with no space parsed")
	}
}

func TestCheckAccounting(t *testing.T) {
	st, err := parseStats([]byte(`{"spaces": {"default": {"Requests": 10, "Hits": 7, "Misses": 3, "Backends": [{"Demand": 3, "Speculative": 2}]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAccounting(st, 10, originCounts{Items: 5}); err != nil {
		t.Errorf("consistent books rejected: %v", err)
	}
	if err := checkAccounting(st, 11, originCounts{Items: 5}); err == nil {
		t.Error("a request the daemon did not count went unnoticed")
	}
	if err := checkAccounting(st, 10, originCounts{Items: 6}); err == nil {
		t.Error("an origin fetch the fabric did not count went unnoticed")
	}
	st.Hits = 6
	if err := checkAccounting(st, 10, originCounts{Items: 5}); err == nil {
		t.Error("Requests != Hits + Misses went unnoticed")
	}
}

// originsimPayload is cmd/originsim's payload loop, byte for byte.
func originsimPayload(id int64, size int) []byte {
	unit := strconv.FormatInt(id, 10) + "."
	b := make([]byte, size)
	for i := range b {
		b[i] = unit[i%len(unit)]
	}
	return b
}

func TestFillPayloadMatchesOriginsim(t *testing.T) {
	for _, c := range []struct {
		id   int64
		size int
	}{{0, 1}, {7, 256}, {123456, 1024}, {probeKey, 16384}, {42, 3}} {
		b := make([]byte, c.size)
		fillPayload(b, c.id)
		if !bytes.Equal(b, originsimPayload(c.id, c.size)) {
			t.Errorf("payload of id %d at %d bytes differs from originsim's", c.id, c.size)
		}
	}
}

func TestCheckPayload(t *testing.T) {
	scratch := make([]byte, 64)
	good := originsimPayload(31, 64)
	if err := checkPayload(good, 31, 64, true, scratch); err != nil {
		t.Errorf("good body rejected: %v", err)
	}
	if err := checkPayload(good[:63], 31, 64, false, scratch); err == nil {
		t.Error("short body accepted")
	}
	if err := checkPayload(originsimPayload(32, 64), 31, 64, false, scratch); err == nil {
		t.Error("another key's body accepted")
	}
	// Right prefix, one wrong byte further in: only the full check sees it.
	bad := append([]byte(nil), good...)
	bad[40] ^= 1
	if err := checkPayload(bad, 31, 64, false, scratch); err != nil {
		t.Errorf("prefix check read past the prefix: %v", err)
	}
	if err := checkPayload(bad, 31, 64, true, scratch); err == nil {
		t.Error("full check missed a corrupt byte")
	}
}

func frames(t *testing.T, keys []int64, size int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, k := range keys {
		if err := httpfetch.WriteBatchItem(&buf, fetch.ID(k), originsimPayload(k, size)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestCheckFrames(t *testing.T) {
	keys := []int64{5, 900, 17}
	scratch := make([]byte, 32)
	good := frames(t, keys, 32)
	if err := checkFrames(good, keys, 32, true, scratch); err != nil {
		t.Errorf("good reply rejected: %v", err)
	}
	bad := map[string][]byte{
		"records out of order": frames(t, []int64{900, 5, 17}, 32),
		"a record missing":     frames(t, keys[:2], 32),
		"a trailing record":    frames(t, append(append([]int64(nil), keys...), 1), 32),
		"a truncated payload":  good[:len(good)-1],
		"a truncated header":   good[:2*(batchHeaderLen+32)+5],
		"a wrong length":       frames(t, keys, 31),
	}
	for name, body := range bad {
		if err := checkFrames(body, keys, 32, true, scratch); err == nil {
			t.Errorf("reply with %s accepted", name)
		}
	}
}

func take(st stream, n int) [][]int64 {
	out := make([][]int64, n)
	var keys []int64
	for i := range out {
		keys = st.next(keys)
		out[i] = append([]int64(nil), keys...)
	}
	return out
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, sp := range specs {
		a, b, c := take(sp.newStream(7), 3000), take(sp.newStream(7), 3000), take(sp.newStream(8), 3000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different streams", sp.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: two seeds gave the same stream", sp.name)
		}
		want := 1
		if sp.batch {
			want = 8
		}
		for i, keys := range a {
			if len(keys) != want {
				t.Fatalf("%s: request %d has %d keys, want %d", sp.name, i, len(keys), want)
			}
		}
	}
}

func TestHotStreamSweepsThenMixesInColdKeys(t *testing.T) {
	reqs := take(specs[0].newStream(3), hotKeys+20*coldEvery)
	for i := 0; i < hotKeys; i++ {
		if reqs[i][0] != int64(i) {
			t.Fatalf("warm-up request %d asks for key %d, want the sweep", i, reqs[i][0])
		}
	}
	cold := map[int64]bool{}
	for i, r := range reqs[hotKeys:] {
		k := r[0]
		if (hotKeys+i)%coldEvery == 0 {
			if k < hotKeys || cold[k] {
				t.Fatalf("request %d: key %d is not a fresh cold key", hotKeys+i, k)
			}
			cold[k] = true
		} else if k < 0 || k >= hotKeys {
			t.Fatalf("request %d: key %d is outside the hot set", hotKeys+i, k)
		}
	}
	if len(cold) != 20 {
		t.Errorf("%d cold keys in %d requests, want 20", len(cold), 20*coldEvery)
	}
}

func TestScanStreamNeverRepeats(t *testing.T) {
	seen := map[int64]bool{}
	for _, r := range take(newScanStream(11), 50000) {
		k := r[0]
		if k < 0 || k >= scanKeys || seen[k] {
			t.Fatalf("key %d repeats or is out of range", k)
		}
		seen[k] = true
	}
}

func TestTargets(t *testing.T) {
	if got := string(objPath(nil, 42)); got != "/obj/42" {
		t.Errorf("objPath = %q", got)
	}
	if got := string(batchPath(nil, []int64{1, 20, 300})); got != "/batch?ids=1,20,300" {
		t.Errorf("batchPath = %q", got)
	}
}

func TestAtReferenceSpeed(t *testing.T) {
	// The host ran at half speed around the first slice and at the
	// reference speed around the second.
	run := &daemonRun{refP50: []float64{2 * refNominalP50, refNominalP50}}
	if got := atReferenceSpeed([]float64{10, 10}, run.refP50); !reflect.DeepEqual(got, []float64{5, 10}) {
		t.Errorf("atReferenceSpeed = %v, want [5 10]", got)
	}
	if got := run.speed(); got != 1.5 {
		t.Errorf("speed = %v, want 1.5", got)
	}
	if got := (&daemonRun{}).speed(); got != 1 {
		t.Errorf("speed with no reference burst = %v, want 1", got)
	}
}

func TestLoadResultAdd(t *testing.T) {
	a := loadResult{attempted: 1, keys: 8, bytes: 100, elapsed: time.Second}
	a.add(loadResult{attempted: 2, failed: 1, keys: 16, bytes: 50, elapsed: time.Second})
	if a.attempted != 3 || a.failed != 1 || a.keys != 24 || a.bytes != 150 || a.elapsed != 2*time.Second {
		t.Errorf("sum = %+v", a)
	}
}

func TestDaemonFlags(t *testing.T) {
	sp, err := findSpec("chain-obj")
	if err != nil {
		t.Fatal(err)
	}
	want := "-cache 512 -cache-bytes 8388608 -bandwidth 4e+06 -origin-batch-path /batch"
	if got := strings.Join(sp.daemonFlags(), " "); got != want {
		t.Errorf("flags = %q, want %q", got, want)
	}
	if _, err := findSpec("no-such"); err == nil {
		t.Error("an unknown workload was found")
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Start: 35, End: 45},  // a grandchild: 3's business, not 1's
	}
	self := selfTimes(spans)
	if self[1] != 100-50-10 {
		t.Errorf("self time of the root = %v, want 40", self[1])
	}
	if self[3] != 20 {
		t.Errorf("self time of span 3 = %v, want 20", self[3])
	}
	if self[2] != 30 {
		t.Errorf("self time of a leaf = %v, want 30", self[2])
	}
}

// TestLoadAgainstOrigin drives the closed-loop clients and every reply
// check against the bench origin alone: the loadgen.floor_p50_us path,
// and a smoke test of the plumbing with no daemon to boot.
func TestLoadAgainstOrigin(t *testing.T) {
	for _, sp := range specs {
		o, err := startOrigin(sp.size, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := runLoad(strings.TrimPrefix(o.url, "http://"), sp, &sharedStream{s: sp.newStream(1)}, 2, 300, 0)
		o.stop()
		if err != nil {
			t.Fatal(err)
		}
		if res.attempted != 300 || res.failed != 0 || len(res.samples) != 300 {
			t.Errorf("%s: %d attempted, %d failed (%v), want 300 and 0", sp.name, res.attempted, res.failed, res.firstErr)
		}
		keysPer := int64(1)
		if sp.batch {
			keysPer = 8
		}
		c := o.counts()
		if c.Requests != 300 || c.Items != 300*keysPer || c.Bytes != 300*keysPer*int64(sp.size) || res.bytes != c.Bytes {
			t.Errorf("%s: origin counted %+v, clients received %d bytes", sp.name, c, res.bytes)
		}
		if n := len(o.handlerDurations()); n != 300 {
			t.Errorf("%s: %d handler durations, want 300", sp.name, n)
		}
	}
}

// TestManifestMatchesBenchmarkJSON holds the checked-in BENCHMARK.json
// to the definitions this program reports by, and those to the limits
// the file's contract sets.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	if err := checkManifest("../BENCHMARK.json"); err != nil {
		t.Error(err)
	}
	for _, sp := range specs {
		if len(sp.why) > 200 || strings.Contains(sp.why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", sp.name)
		}
	}
	hasSetup := false
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}
