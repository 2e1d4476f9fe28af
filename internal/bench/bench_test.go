package bench

import (
	"repro/internal/fs"
	"repro/internal/mem"
	"repro/internal/mmdsfi"
	"repro/internal/workloads"
	"repro/internal/workloads/specint"

	"bytes"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestShapeFig6aSpawn asserts what is exact about Figure 6a, on the
// Occlum kernel's own spawn counters. However many times a binary is
// spawned it is read through the encrypted FS and verified once, on the
// first spawn (the paper's size-proportional cost, now paid per binary);
// the first spawn loads the whole image into its domain, and a repeat
// spawn, which finds the domain still holding it (a warm slot), copies
// the data segment alone; a repeat spawn into a domain that holds another
// image (forced here by round-robin on one domain) loads the whole image
// again; and an exit scrubs the pages the SIP's image and stack dirtied,
// not the domain reserved for it. That Graphene pays an enclave per spawn
// and Occlum's first spawn grows with size are wall clock:
// TestFig6aSpawnRegression.
func TestShapeFig6aSpawn(t *testing.T) {
	s := Quick()
	tab, counts, err := fig6aSpawn(s)
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, r := range tab.Rows {
		labels = append(labels, r.Label)
		if len(r.Values) != len(s.SpawnSizes) {
			t.Errorf("row %q has %d values, want %d", r.Label, len(r.Values), len(s.SpawnSizes))
		}
	}
	if want := []string{"Linux", "Occlum (first spawn)", "Occlum", "Graphene-SGX"}; !slices.Equal(labels, want) {
		t.Fatalf("rows %q, want %q", labels, want)
	}
	if len(counts) != len(s.SpawnSizes) {
		t.Fatalf("%d Occlum count records, want %d", len(counts), len(s.SpawnSizes))
	}
	spec := s.kernelSpec()
	domainPages := (spec.DomainCode + spec.DomainData) / mem.PageSize
	for i, sb := range s.SpawnSizes {
		first, rep := counts[i].First, counts[i].Repeat
		image := first.ImageBytesLoaded
		if image < uint64(sb.Pad) || first.ImageBytesRead <= image {
			t.Errorf("%s: first spawn loaded %d bytes and read %d, for %d bytes of padding", sb.Name, image, first.ImageBytesRead, sb.Pad)
		}
		if first.ImagesVerified != 1 || first.ImageCacheHits != 0 || first.Exits != 1 || first.SlotHits != 0 {
			t.Errorf("%s: first spawn %+v, want 1 verify, 0 hits, 1 exit, no slot hit", sb.Name, first)
		}
		if rep.ImagesVerified != 0 || rep.ImageBytesRead != 0 || rep.ImageCacheHits != spawnRepeats || rep.Exits != spawnRepeats || rep.SlotHits != spawnRepeats {
			t.Errorf("%s: %d repeat spawns %+v, want 0 verifies, 0 bytes read, all hits, all slot hits", sb.Name, spawnRepeats, rep)
		}
		// Warm: the data segment each time, the code never.
		if data := rep.ImageBytesLoaded / spawnRepeats; rep.ImageBytesLoaded%spawnRepeats != 0 || data < uint64(sb.Pad) || data >= image {
			t.Errorf("%s: repeat spawns loaded %d bytes, want %d x the data segment of a %d-byte image", sb.Name, rep.ImageBytesLoaded, spawnRepeats, image)
		}
		// The first spawn went to a domain no SIP had used: nothing to
		// scrub at load, so it and each warm repeat scrub the same pages.
		if rep.PagesScrubbed != spawnRepeats*first.PagesScrubbed {
			t.Errorf("%s: repeat spawns scrubbed %d pages, want %d x %d", sb.Name, rep.PagesScrubbed, spawnRepeats, first.PagesScrubbed)
		}
		// Code, data, trampoline and the auxv/stack top: the image's
		// pages plus a small constant, per exit.
		if perExit, bound := (first.PagesScrubbed+rep.PagesScrubbed)/(1+spawnRepeats), image/mem.PageSize+16; perExit > bound {
			t.Errorf("%s: %d pages scrubbed per exit, want ≤ %d", sb.Name, perExit, bound)
		}
	}
	if small := counts[0].Repeat.PagesScrubbed / spawnRepeats; small*64 > domainPages {
		t.Errorf("smallest binary: %d pages scrubbed per exit of a %d-page domain, want ≪", small, domainPages)
	}

	// Forced cold: the binaries round-robin on one domain, so every
	// repeat spawn finds it holding another image and loads the whole of
	// its own, as every repeat did before warm slots.
	spec.Domains = 1
	k, err := workloads.NewOcclumKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Sys.OS.Shutdown()
	for _, sb := range s.SpawnSizes {
		prog, err := buildTrivial(sb.Pad)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.InstallProgram("/bin/"+sb.Name, prog); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		for i, sb := range s.SpawnSizes {
			s0 := k.Sys.OS.SpawnStats()
			if status, err := workloads.RunToCompletion(k, "/bin/"+sb.Name, nil, nil); err != nil || status != 0 {
				t.Fatalf("%s on one domain: status %d, err %v", sb.Name, status, err)
			}
			cold := k.Sys.OS.SpawnStats().Sub(s0)
			image := counts[i].First.ImageBytesLoaded
			if round == 1 && (cold.ImagesVerified != 0 || cold.ImageCacheHits != 1 || cold.SlotHits != 0 || cold.ImageBytesLoaded != image) {
				t.Errorf("%s: cold repeat spawn %+v, want a cache hit loading all %d bytes", sb.Name, cold, image)
			}
			if cold.PagesScrubbed > image/mem.PageSize+16 {
				t.Errorf("%s: cold spawn scrubbed %d pages, want ≤ %d", sb.Name, cold.PagesScrubbed, image/mem.PageSize+16)
			}
		}
	}
}

// TestFig6aSpawnRegression holds Figure 6a's wall-clock shape on the
// medians of 5 runs: Graphene-SGX pays an enclave creation per spawn
// (≥ 10x Occlum on the smallest binary; 6,600x in the paper, the factor
// here depends on the configured enclave size) and is therefore not
// size-dominated (largest ≤ 10x smallest), while Occlum's first spawn
// grows with binary size (no demand paging in an enclave: largest > 2x
// smallest). Wall clock, so it only runs when OCCLUM_BENCH_REGRESS=1.
func TestFig6aSpawnRegression(t *testing.T) {
	if os.Getenv("OCCLUM_BENCH_REGRESS") == "" {
		t.Skip("set OCCLUM_BENCH_REGRESS=1 to run the bench smoke")
	}
	if raceEnabled {
		t.Skip("wall-clock ratios are not meaningful under the race detector")
	}
	const runs = 5
	var graOverOcc, occGrowth, graGrowth []float64
	for run := 0; run < runs; run++ {
		tab, err := Fig6aSpawn(Quick())
		if err != nil {
			t.Fatal(err)
		}
		byLabel := map[string][]float64{}
		for _, r := range tab.Rows {
			byLabel[r.Label] = r.Values
		}
		first, occ, gra := byLabel["Occlum (first spawn)"], byLabel["Occlum"], byLabel["Graphene-SGX"]
		last := len(occ) - 1
		graOverOcc = append(graOverOcc, gra[0]/occ[0])
		occGrowth = append(occGrowth, first[last]/first[0])
		graGrowth = append(graGrowth, gra[last]/gra[0])
	}
	for _, r := range [][]float64{graOverOcc, occGrowth, graGrowth} {
		sort.Float64s(r)
	}
	t.Logf("medians of %d: Graphene/Occlum smallest %.1fx of %.1f; Occlum first spawn largest/smallest %.1fx of %.1f; Graphene largest/smallest %.1fx of %.1f",
		runs, graOverOcc[runs/2], graOverOcc, occGrowth[runs/2], occGrowth, graGrowth[runs/2], graGrowth)
	if graOverOcc[runs/2] < 10 {
		t.Errorf("smallest binary: Graphene-SGX only %.1fx Occlum — enclave cost missing", graOverOcc[runs/2])
	}
	if occGrowth[runs/2] <= 2 {
		t.Errorf("Occlum first spawn not size-proportional: largest only %.1fx smallest", occGrowth[runs/2])
	}
	if graGrowth[runs/2] > 10 {
		t.Errorf("Graphene-SGX spawn unexpectedly size-dominated: largest %.1fx smallest", graGrowth[runs/2])
	}
}

// TestShapeFig6bPipe asserts what is exact about Figure 6b: all three
// kernels moved the bytes, and on Occlum every byte crossed guest memory
// ↔ pipe ring once per side as a loan (lent = 2 × bytes moved, nothing
// staged) — "a plain in-enclave copy" as a count. The baselines do not
// touch the SIP ledgers. That this beats Graphene's sealed pipes in
// MB/s is wall clock: TestFig6bPipeRegression.
func TestShapeFig6bPipe(t *testing.T) {
	s := Quick()
	tab, net, err := fig6bPipe(s)
	if err != nil {
		t.Fatal(err)
	}
	var moved uint64
	for _, bs := range s.PipeBufs {
		moved += uint64(s.PipeTotal / bs * bs)
	}
	want := map[string]uint64{"Linux": 0, "Occlum": 2 * moved, "Graphene-SGX": 0}
	if len(tab.Rows) != len(want) {
		t.Fatalf("fig6b rows = %d, want %d", len(tab.Rows), len(want))
	}
	for i, r := range tab.Rows {
		lent, ok := want[r.Label]
		if !ok || len(r.Values) != len(s.PipeBufs) {
			t.Fatalf("row %q (known: %v) has %d values, want %d", r.Label, ok, len(r.Values), len(s.PipeBufs))
		}
		if d := net[i]; d.BytesLent != lent || d.BytesCopied != 0 {
			t.Errorf("%s: %d bytes lent, %d copied, want %d, 0", r.Label, d.BytesLent, d.BytesCopied, lent)
		}
	}
}

// TestFig6bPipeRegression holds Figure 6b's shape on the median of 5
// runs: Occlum pipes (in-enclave loans) at least 1.5x Graphene pipes
// (AES-GCM through untrusted memory) at the largest buffer. Wall clock,
// so it only runs when OCCLUM_BENCH_REGRESS=1.
func TestFig6bPipeRegression(t *testing.T) {
	if os.Getenv("OCCLUM_BENCH_REGRESS") == "" {
		t.Skip("set OCCLUM_BENCH_REGRESS=1 to run the bench smoke")
	}
	if raceEnabled {
		t.Skip("wall-clock ratios are not meaningful under the race detector")
	}
	const runs = 5
	var ratios []float64
	for run := 0; run < runs; run++ {
		tab, err := Fig6bPipe(Quick())
		if err != nil {
			t.Fatal(err)
		}
		byLabel := map[string][]float64{}
		for _, r := range tab.Rows {
			byLabel[r.Label] = r.Values
		}
		occ, gra := byLabel["Occlum"], byLabel["Graphene-SGX"]
		ratios = append(ratios, occ[len(occ)-1]/gra[len(gra)-1])
	}
	sort.Float64s(ratios)
	t.Logf("Occlum / Graphene-SGX pipe MB/s at the largest buffer: median %.2fx of %.2f", ratios[runs/2], ratios)
	if ratios[runs/2] < 1.5 {
		t.Errorf("Occlum / Graphene-SGX = %.2fx, want ≥ 1.5x", ratios[runs/2])
	}
}

func TestShapeFig6cdFileIO(t *testing.T) {
	for _, write := range []bool{false, true} {
		tab, err := Fig6cdFileIO(Quick(), write)
		if err != nil {
			t.Fatal(err)
		}
		byLabel := map[string][]float64{}
		for _, r := range tab.Rows {
			byLabel[r.Label] = r.Values
		}
		linux, occ := byLabel["Linux"], byLabel["Occlum"]
		last := len(occ) - 1
		// Encryption makes Occlum slower than ext4, but within the
		// same order of magnitude (paper: 18-39% overhead).
		if occ[last] > linux[last] {
			t.Logf("write=%v: Occlum %.1f ≥ Linux %.1f MB/s (cache effects)", write, occ[last], linux[last])
		}
		if occ[last] < linux[last]/20 {
			t.Errorf("write=%v: Occlum %.1f MB/s more than 20x below Linux %.1f", write, occ[last], linux[last])
		}
	}
}

func TestShapeFig7a(t *testing.T) {
	s := Quick()
	s.SpecIters = 100
	tab, err := Fig7aSpecint(s)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, r := range tab.Rows {
		if r.Label == "Mean" {
			mean = r.Values[0]
		}
	}
	if mean < 10 || mean > 90 {
		t.Fatalf("mean overhead %.1f%% out of the paper's regime", mean)
	}
	t.Logf("mean MMDSFI overhead: %.1f%% (paper 36.6%%)", mean)
}

// TestFig7GoldenCounts pins the exact retired-instruction counts behind
// Figure 7 — each specint kernel at SpecIters = 100, native and under
// the default MMDSFI instrumentation. The interpreter is the figure's
// clock, so a VM change that claims to be cycle-exact proves it here;
// a change to the kernels, the instrumenter or the ISA that moves a
// count on purpose regenerates the table and says why.
func TestFig7GoldenCounts(t *testing.T) {
	golden := []struct {
		name                 string
		native, instrumented uint64
	}{
		{"perlbench", 8007, 12208},
		{"bzip2", 3907, 4108},
		{"gcc", 8107, 11708},
		{"mcf", 4107, 5908},
		{"gobmk", 6107, 8308},
		{"hmmer", 4407, 4608},
		{"sjeng", 5907, 8108},
		{"libquantum", 3207, 3408},
		{"h264ref", 5407, 6608},
		{"omnetpp", 7507, 11708},
		{"astar", 5407, 7208},
		{"xalancbmk", 7907, 12108},
	}
	if len(golden) != len(specint.Suite) {
		t.Fatalf("golden table has %d kernels, suite has %d", len(golden), len(specint.Suite))
	}
	for i, r := range specint.Suite {
		g := golden[i]
		if r.Name != g.name {
			t.Fatalf("suite[%d] = %s, golden table has %s", i, r.Name, g.name)
		}
		native, err := specint.Measure(r, 100, mmdsfi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		instr, err := specint.Measure(r, 100, mmdsfi.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if native != g.native || instr != g.instrumented {
			t.Errorf("%s: retired %d native / %d instrumented, golden %d / %d",
				r.Name, native, instr, g.native, g.instrumented)
		}
	}
}

func TestRunAllQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := Quick()
	// Shrink further for the smoke test.
	s.FishInput = 4 << 10
	s.GCCSources = []int{256, 4096}
	s.HTTPRequests = 16
	s.HTTPConcurrency = []int{2}
	s.PipeTotal = 256 << 10
	s.FileTotal = 256 << 10
	s.SpecIters = 50
	s.SpawnSizes = []SpawnBinary{{"helloworld", 0}, {"busybox", 64 << 10}, {"cc1", 512 << 10}}
	s.IPCTotal = 2 << 20

	var out bytes.Buffer
	if err := RunAll(s, &out); err != nil {
		t.Fatalf("%v\noutput so far:\n%s", err, out.String())
	}
	for _, want := range []string{"Figure 5a", "Figure 6a", "Figure 7a", "RIPE", "Table 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
	t.Logf("\n%s", out.String())
}

// TestShapeIPCBench is the zero-copy data-plane CI smoke. It asserts
// only the per-cell syscall and byte ledgers, which are exact: every
// pump, scalar or vectored, lends every payload byte once per hop and
// stages none (a scalar write is a one-span writev through the same
// body), and splice moves the payload without staging a byte either.
// What still tells the rows apart is the call count: a vectored pump
// issues one 4-span writev per chunk-sized round where the scalar pump
// issues four writes, which the writevs ledger does not count. The
// throughput ratio that buys is wall clock, so it lives in
// TestIPCBenchRegression (median of 5).
func TestShapeIPCBench(t *testing.T) {
	s := Quick()
	tab, net, err := ipcBench(s)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(s.IPCTotal)
	// Every payload byte is moved once per SIP-side hop: a pipe has two
	// (writer, reader; the splice row's are filler and mover), a socket
	// one (the far end is the host-side drain, outside the ledger).
	rows := map[string]struct {
		hops     uint64
		vectored bool
	}{
		"pipe scalar": {2, false}, "pipe writev": {2, true},
		"sock scalar": {1, false}, "sock writev": {1, true},
		"pipe→sock splice": {2, true},
	}
	for ri, r := range tab.Rows {
		row, ok := rows[r.Label]
		if !ok || len(r.Values) != len(s.IPCChunks) || len(net[ri]) != len(s.IPCChunks) {
			t.Fatalf("row %q (known: %v): %d values, %d ledgers, want %d", r.Label, ok, len(r.Values), len(net[ri]), len(s.IPCChunks))
		}
		for ci, chunk := range s.IPCChunks {
			d := net[ri][ci]
			wantWritevs := uint64(0)
			if row.vectored {
				wantWritevs = total / uint64(chunk)
			}
			t.Logf("%s %d KiB: writevs=%d readvs=%d splices=%d lent=%d copied=%d", r.Label, chunk>>10, d.Writevs, d.Readvs, d.Splices, d.BytesLent, d.BytesCopied)
			if d.Writevs != wantWritevs || d.BytesLent != row.hops*total || d.BytesCopied != 0 {
				t.Errorf("%s at %d KiB: %d writevs, %d bytes lent, %d copied, want %d, %d, 0",
					r.Label, chunk>>10, d.Writevs, d.BytesLent, d.BytesCopied, wantWritevs, row.hops*total)
			}
		}
	}
}

// TestIPCBenchRegression holds the data plane's throughput lines on the
// median of 5 runs. Scalar and vectored pumps move bytes through the
// same lending body, so what a writev buys is calls, not copies: at
// 1 KiB chunks, where the syscall is the cost, one 4-span writev must
// beat four 256-byte writes by ≥ 1.5x on a pipe; everywhere else the
// line is only that gathering is not slower than looping (≥ 0.85x; the
// socket rows share the clock with the host-side drain goroutine).
// Splice has no line: it crosses two rings and three parties where the
// scalar pipe crosses one and two, so neither bounds the other.
// Heavy and timing-sensitive, so it only runs when
// OCCLUM_BENCH_REGRESS=1 (the CI bench job sets it).
func TestIPCBenchRegression(t *testing.T) {
	if os.Getenv("OCCLUM_BENCH_REGRESS") == "" {
		t.Skip("set OCCLUM_BENCH_REGRESS=1 to run the bench smoke")
	}
	if raceEnabled {
		t.Skip("wall-clock ratios are not meaningful under the race detector")
	}
	const runs = 5
	chunks := Quick().IPCChunks
	lines := []struct {
		over, base string
		floor      []float64 // per chunk
	}{
		{"pipe writev", "pipe scalar", []float64{1.5, 0.85, 0.85}},
		{"sock writev", "sock scalar", []float64{0.85, 0.85, 0.85}},
	}
	ratios := make([][][]float64, len(lines)) // [line][chunk][run]
	for i := range ratios {
		ratios[i] = make([][]float64, len(chunks))
	}
	for run := 0; run < runs; run++ {
		tab, err := IPCBench(Quick())
		if err != nil {
			t.Fatal(err)
		}
		byLabel := map[string][]float64{}
		for _, r := range tab.Rows {
			byLabel[r.Label] = r.Values
		}
		for li, l := range lines {
			for ci := range chunks {
				ratios[li][ci] = append(ratios[li][ci], byLabel[l.over][ci]/byLabel[l.base][ci])
			}
		}
	}
	for li, l := range lines {
		for ci, c := range chunks {
			sort.Float64s(ratios[li][ci])
			med := ratios[li][ci][runs/2]
			t.Logf("%s / %s at %d KiB: median %.2fx of %.2f", l.over, l.base, c>>10, med, ratios[li][ci])
			if med < l.floor[ci] {
				t.Errorf("%s / %s at %d KiB = %.2fx, want ≥ %.1fx", l.over, l.base, c>>10, med, l.floor[ci])
			}
		}
	}
}

// TestShapeFSBench checks fsbench's structural claims rather than raw
// wall-clock: every row produces a positive number, the cold image pass
// pays Merkle verification with read-ahead while the warm pass verifies
// nothing, and the upper layer sees the sequential write.
func TestShapeFSBench(t *testing.T) {
	before := fs.Stats()
	tab, err := FSBench(Quick())
	if err != nil {
		t.Fatal(err)
	}
	d := fs.Stats().Sub(before)
	for _, r := range tab.Rows {
		pos := false
		for _, v := range r.Values {
			if v > 0 {
				pos = true
			}
		}
		if !pos {
			t.Errorf("row %q has no positive measurement: %v", r.Label, r.Values)
		}
	}
	if len(tab.Rows) != 7 {
		t.Fatalf("fsbench rows = %d, want 7", len(tab.Rows))
	}
	quick := Quick()
	wantBlocks := uint64(quick.FSBenchTotal / 4096)
	if d.VerifiedBlocks < wantBlocks {
		t.Errorf("verified %d blocks, want ≥ %d (the whole image file, cold)", d.VerifiedBlocks, wantBlocks)
	}
	if d.ReadAheads == 0 {
		t.Error("sequential image read triggered no read-ahead")
	}
	// The LibOS idle scrubber runs whenever the bench's harts have no SIP
	// to step — at minimum it verifies the Mkfs blocks right after boot —
	// and on an uncorrupted store it must repair nothing.
	if d.ScrubbedBlocks == 0 {
		t.Error("idle scrubber never ran during fsbench")
	}
	if d.RepairedShards != 0 || d.RebuiltShards != 0 {
		t.Errorf("healthy store healed shards: repaired=%d rebuilt=%d", d.RepairedShards, d.RebuiltShards)
	}
	t.Logf("fsbench stats: %+v", d)
}

// TestShapeRecovery checks the recovery experiment's structural claims:
// every row measures something, degraded reads and the rot scrub heal a
// meaningful number of shards, and the offline rebuild restores a full
// file's worth.
func TestShapeRecovery(t *testing.T) {
	before := fs.Stats()
	tab, err := Recovery(Quick())
	if err != nil {
		t.Fatal(err)
	}
	d := fs.Stats().Sub(before)
	byLabel := map[string][]float64{}
	for _, r := range tab.Rows {
		if r.Values[0] <= 0 {
			t.Errorf("row %q has no positive throughput: %v", r.Label, r.Values)
		}
		byLabel[r.Label] = r.Values
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("recovery rows = %d, want 6", len(tab.Rows))
	}
	blocks := Quick().FSBenchTotal / fs.BlockSize
	// Degraded reads reconstruct (and heal) one lost shard per block.
	if healed := byLabel["Degraded read + heal"][1]; healed < float64(blocks) {
		t.Errorf("degraded read healed %v shards, want ≥ %d (one per block)", healed, blocks)
	}
	// The offline rebuild restores one whole backing file: a shard per
	// block plus that file's slice of table, record and header.
	if rebuilt := byLabel["Rebuild lost file"][1]; rebuilt < float64(blocks) {
		t.Errorf("rebuild restored %v shards, want ≥ %d", rebuilt, blocks)
	}
	if byLabel["Scrub clean"][1] != 0 {
		t.Errorf("clean scrub healed %v shards", byLabel["Scrub clean"][1])
	}
	if byLabel["Scrub + heal rot"][1] == 0 {
		t.Error("rot scrub healed nothing")
	}
	if d.ScrubbedBlocks == 0 || d.RebuiltShards == 0 || d.RepairedShards == 0 {
		t.Errorf("counters did not move: %+v", d)
	}
	t.Logf("recovery stats: %+v\nrows: %v", d, byLabel)
}

// TestC10KRegression is the c10k shape gate: serving ten thousand open
// connections must stay in the same regime as serving 64, and churning
// 25% of the population per round must not blow up the steady
// connections' tail. Absolute req/s are machine-dependent, so the gate
// holds ratios on the median of 3 runs: PR 4 measured the 10k point at
// -33% of the 64-conn point and PR 10 at -42%..-35% with the wheel and
// shard work, so 0.40 is the falls-off-a-cliff line, and the churn
// row's p99 stays within 5x of the no-churn p99 (measured 2x). Heavy
// and timing-sensitive, so it only runs when OCCLUM_BENCH_REGRESS=1
// (the CI bench job sets it).
func TestC10KRegression(t *testing.T) {
	if os.Getenv("OCCLUM_BENCH_REGRESS") == "" {
		t.Skip("set OCCLUM_BENCH_REGRESS=1 to run the bench smoke")
	}
	if raceEnabled {
		t.Skip("wall-clock ratios are not meaningful under the race detector")
	}
	var ratios, tails []float64
	for run := 0; run < 3; run++ {
		tab, err := C10KTable(Quick())
		if err != nil {
			t.Fatal(err)
		}
		byLabel := map[string][]float64{}
		for _, r := range tab.Rows {
			byLabel[r.Label] = r.Values
		}
		small, big, churn := byLabel["conns=64"], byLabel["conns=10240"], byLabel["conns=10240 +churn"]
		if small == nil || big == nil || churn == nil {
			t.Fatalf("rows missing: %v", byLabel)
		}
		for label, row := range byLabel {
			if row[3] != 0 {
				t.Fatalf("%s: %v failed requests", label, row[3])
			}
		}
		ratios = append(ratios, big[0]/small[0])
		tails = append(tails, churn[2]/big[2])
	}
	sort.Float64s(ratios)
	sort.Float64s(tails)
	if ratios[1] < 0.40 {
		t.Errorf("10k/64-conn throughput ratio median = %.2f, want ≥ 0.40", ratios[1])
	}
	if tails[1] > 5.0 {
		t.Errorf("churn/no-churn p99 ratio median = %.1fx at 10240 conns, want ≤ 5x", tails[1])
	}
	t.Logf("c10k gate: throughput ratio median %.2f, churn p99 ratio median %.1fx", ratios[1], tails[1])
}
