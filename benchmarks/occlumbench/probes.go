package main

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/mem"
	"repro/internal/mmdsfi"
	"repro/internal/oelf"
	"repro/internal/ring"
	"repro/internal/sched"
	"repro/internal/ulib"
	"repro/internal/verifier"
	"repro/internal/workloads"
	"repro/internal/workloads/specint"
)

// Layer probes time one layer's public functions directly, on inputs the
// workloads use (their programs, chunk sizes, file sizes and stripe
// geometry), each on state of its own so that nothing the workload left
// behind leaks in. Every timing is the p10 of its repetitions.

// probeReps is the repetition floor for a timing probe; probes whose
// single rep costs milliseconds run fewer and say so.
const probeReps = 200

// timeReps returns the p10 duration of fn over reps calls, in ns.
func timeReps(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		fn()
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return p10(xs)
}

// runProbes runs every layer probe and stores its metrics in m.
func runProbes(m metrics) error {
	for _, p := range []func(metrics) error{
		probeVM, probeMem, probeToolchain, probeLibOS,
		probeSched, probeHostNet, probeRing, probeHostFile,
		probeStore, probeEncFS,
	} {
		if err := p(m); err != nil {
			return err
		}
	}
	return nil
}

// --- vm / mem ---------------------------------------------------------------

// Instruction mixes for the interpreter probes: register-only work, and
// work dominated by loads, stores and dependent loads (the path traces
// do not help, ROADMAP item 2 "MemoryLoop").
var (
	computeMix = specint.Recipe{Name: "compute", Alu: 16, Branches: 2}
	memoryMix  = specint.Recipe{Name: "memory", Loads: 8, Stores: 4, Chase: 4, Alu: 2}
)

// probeVM times both mixes, MMDSFI-instrumented like all guest code the
// workloads run, on a bare vm.CPU: ns per retired instruction.
func probeVM(m metrics) error {
	for _, mix := range []struct {
		name string
		r    specint.Recipe
	}{
		{"probe.vm.ns_per_inst_compute", computeMix},
		{"probe.vm.ns_per_inst_memory", memoryMix},
	} {
		prog, err := specint.Build(mix.r, 4000)
		if err != nil {
			return err
		}
		ip, err := mmdsfi.Instrument(prog, mmdsfi.DefaultOptions())
		if err != nil {
			return err
		}
		img, err := asm.Link(ip)
		if err != nil {
			return err
		}
		var insts uint64
		var runErr error
		ns := timeReps(probeReps, func() {
			n, err := specint.Run(img)
			if err != nil {
				runErr = err
			}
			insts = n
		})
		if runErr != nil {
			return runErr
		}
		m.set(mix.name, ns/float64(insts), "ns")
	}

	// Fig 7a mean overhead: retired-instruction ratio, exact.
	var sum float64
	for _, r := range specint.Suite {
		ov, err := specint.Overhead(r, 50, mmdsfi.DefaultOptions())
		if err != nil {
			return err
		}
		sum += ov
	}
	m.set("probe.mmdsfi.overhead_pct", 100*sum/float64(len(specint.Suite)), "%")
	return nil
}

// probeMem times one 8-byte Load plus one 8-byte Store on mem.Paged,
// walking the 4 KiB buffer the filters use.
func probeMem(m metrics) error {
	const base, pairs = 0x100000, 512
	pm := mem.NewPaged(base, 16*mem.PageSize)
	if err := pm.Map(base, 16*mem.PageSize, mem.PermRW); err != nil {
		return err
	}
	var fault *mem.Fault
	ns := timeReps(probeReps, func() {
		for i := uint64(0); i < pairs; i++ {
			v, f := pm.Load(base+8*i, 8)
			if f != nil {
				fault = f
			}
			if f := pm.Store(base+8*i, 8, v+1); f != nil {
				fault = f
			}
		}
	})
	if fault != nil {
		return fault
	}
	m.set("probe.mem.load_store_ns", ns/pairs, "ns")
	return nil
}

// --- toolchain: mmdsfi, verifier, oelf --------------------------------------

// workloadPrograms are the distinct guest programs the workloads
// install (without cc1's padding, which is data, not instructions).
func workloadPrograms() ([]*asm.Program, error) {
	builders := []func() (*asm.Program, error){
		workloads.BuildOd, workloads.BuildGrep, workloads.BuildSort, workloads.BuildWc,
		func() (*asm.Program, error) {
			return workloads.BuildPipelineDriver("/data/fish.in", workloads.FishStages)
		},
		func() (*asm.Program, error) { return workloads.BuildCompilerStage(10, 0) },
		workloads.BuildHTTPWorker,
		func() (*asm.Program, error) {
			return workloads.BuildSeqFileIO("/data/out.bin", fsWriteSize, fsChunk, true)
		},
	}
	var progs []*asm.Program
	for _, build := range builders {
		p, err := build()
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// buildTrivial is a program that exits at once, padded with pad bytes of
// static data: the spawn-cost ladder of Fig 6a.
func buildTrivial(pad int) (*asm.Program, error) {
	b := asm.NewBuilder()
	if pad > 0 {
		b.Bytes("pad", make([]byte, pad))
	}
	b.Entry("_start")
	ulib.Prologue(b)
	ulib.Exit(b, 0)
	return b.Finish()
}

func probeToolchain(m metrics) error {
	progs, err := workloadPrograms()
	if err != nil {
		return err
	}
	key := oelf.NewSigningKey("occlum")
	ver := verifier.New(key)
	var bins []*oelf.Binary
	kinst := 0.0
	for i, p := range progs {
		ip, err := mmdsfi.Instrument(p, mmdsfi.DefaultOptions())
		if err != nil {
			return err
		}
		kinst += float64(len(ip.Items)) / 1000
		img, err := asm.Link(ip)
		if err != nil {
			return err
		}
		bin := oelf.FromImage(fmt.Sprintf("prog%d", i), img)
		if err := ver.VerifyAndSign(bin); err != nil {
			return err
		}
		bins = append(bins, bin)
	}
	var probeErr error
	ns := timeReps(probeReps, func() {
		for _, p := range progs {
			if _, err := mmdsfi.Instrument(p, mmdsfi.DefaultOptions()); err != nil {
				probeErr = err
			}
		}
	})
	m.set("probe.mmdsfi.instrument_us_per_kinst", ns/1e3/kinst, "us")
	ns = timeReps(probeReps, func() {
		for _, b := range bins {
			if err := ver.Verify(b); err != nil {
				probeErr = err
			}
		}
	})
	m.set("probe.verifier.verify_us_per_kinst", ns/1e3/kinst, "us")

	// The loader's signature check, paid on every spawn, on a cc1-sized
	// binary. Reps cost ~10 ms each, hence fewer.
	big, err := buildTrivial(4 << 20)
	if err != nil {
		return err
	}
	bin, err := core.NewToolchain().Compile("big", big)
	if err != nil {
		return err
	}
	ns = timeReps(probeReps/4, func() {
		if err := key.Verify(bin); err != nil {
			probeErr = err
		}
	})
	m.set("probe.oelf.sigcheck_us_per_mib", ns/1e3/(float64(bin.Size())/(1<<20)), "us")
	return probeErr
}

// --- libos -------------------------------------------------------------------

// buildSyscallLoop issues n getpid calls, the cheapest trip through the
// syscall gate and dispatcher.
func buildSyscallLoop(n int) (*asm.Program, error) {
	b := asm.NewBuilder()
	b.Entry("_start")
	ulib.Prologue(b)
	b.MovRI(isa.R8, int64(n))
	b.Label("loop")
	ulib.Syscall(b, libos.SysGetpid)
	b.SubI(isa.R8, 1)
	b.CmpI(isa.R8, 0)
	b.Jg("loop")
	ulib.Exit(b, 0)
	return b.Finish()
}

func probeLibOS(m metrics) error {
	const (
		syscalls = 20000
		pipeSize = 1 << 20
	)
	k, err := workloads.NewOcclumKernel(spec(4, 8<<20))
	if err != nil {
		return err
	}
	defer k.Sys.OS.Shutdown()

	install := func(path string, p *asm.Program, err error) error {
		if err != nil {
			return err
		}
		return k.InstallProgram(path, p)
	}
	small, serr := buildTrivial(0)
	big, berr := buildTrivial(4 << 20)
	loop, lerr := buildSyscallLoop(syscalls)
	cat, cerr := workloads.BuildCat()
	pipe, perr := workloads.BuildPipelineDriver("/data/pipe.in", []string{"/bin/cat", "/bin/cat"})
	for _, err := range []error{
		install("/bin/small", small, serr), install("/bin/big", big, berr),
		install("/bin/loop", loop, lerr), install("/bin/cat", cat, cerr),
		install("/bin/pipe", pipe, perr),
		k.WriteInput("/data/pipe.in", make([]byte, pipeSize)),
	} {
		if err != nil {
			return err
		}
	}

	var probeErr error
	run := func(path string, stdout io.Writer) func() {
		return func() {
			if err := spawnWait(k, nil, path, stdout); err != nil {
				probeErr = err
			}
		}
	}
	// Warm each path once: first spawn decodes the binary's blocks and
	// pulls the file into the EncFS cache.
	for _, path := range []string{"/bin/small", "/bin/big", "/bin/loop"} {
		run(path, nil)()
	}
	m.set("probe.libos.spawn_exit_us_small", timeReps(probeReps, run("/bin/small", nil))/1e3, "us")
	// ~10 ms per rep.
	m.set("probe.libos.spawn_exit_us_4mib", timeReps(probeReps/4, run("/bin/big", nil))/1e3, "us")
	// Spawn+exit (~0.1 ms) amortised over 20000 calls adds ~5 ns.
	m.set("probe.libos.syscall_ns", timeReps(probeReps/4, run("/bin/loop", nil))/syscalls, "ns")

	// cat|cat over a cached 1 MiB file in 4 KiB chunks: one pipe hop,
	// plus the file read and the stdout write at either end.
	var out bytes.Buffer
	run("/bin/pipe", &out)()
	if out.Len() != pipeSize {
		return fmt.Errorf("pipe probe: %d bytes out, want %d", out.Len(), pipeSize)
	}
	ns := timeReps(probeReps/4, run("/bin/pipe", io.Discard))
	m.set("probe.libos.pipe_mib_per_s", float64(pipeSize)/(1<<20)/(ns/1e9), "MiB/s")
	return probeErr
}

// --- sched / hostos / ring -----------------------------------------------------

// parker parks on every Step after announcing itself, so an outside
// goroutine can time unpark → run → park round trips.
type parker struct {
	stepped chan struct{}
	quit    atomic.Bool
}

func (p *parker) Step() sched.Status {
	if p.quit.Load() {
		return sched.Done
	}
	p.stepped <- struct{}{}
	return sched.Park
}

// probeSched times one park/unpark round trip through a one-hart
// scheduler, woken from a host goroutine: the path every blocking
// accept and recv of the httpd workload takes twice per request.
func probeSched(m metrics) error {
	s := sched.New(1)
	defer s.Stop()
	// Unbuffered: the hand-off is part of what is measured.
	p := &parker{stepped: make(chan struct{})}
	g := s.Go(p)
	<-p.stepped
	const trips = 100
	ns := timeReps(probeReps, func() {
		for i := 0; i < trips; i++ {
			g.Unpark()
			<-p.stepped
		}
	})
	p.quit.Store(true)
	g.Unpark()
	m.set("probe.sched.park_unpark_us", ns/trips/1e3, "us")
	return nil
}

func probeHostNet(m metrics) error {
	h := hostos.New()
	l, err := h.Listen(httpPort)
	if err != nil {
		return err
	}
	defer l.Close()
	var probeErr error
	ns := timeReps(probeReps*10, func() {
		c, err := h.Dial(httpPort)
		if err != nil {
			probeErr = err
			return
		}
		s, err := l.Accept()
		if err != nil {
			probeErr = err
			return
		}
		c.Close()
		s.Close()
	})
	m.set("probe.hostos.dial_accept_close_us", ns/1e3, "us")

	// One response (10 KiB + header) written on one end and read on the
	// other; the 256 KiB stream ring takes it without blocking.
	c, err := h.Dial(httpPort)
	if err != nil {
		return err
	}
	s, err := l.Accept()
	if err != nil {
		return err
	}
	defer c.Close()
	defer s.Close()
	msg := make([]byte, workloads.ResponseSize)
	got := make([]byte, workloads.ResponseSize)
	ns = timeReps(probeReps*10, func() {
		if _, err := s.Write(msg); err != nil {
			probeErr = err
		}
		if _, err := io.ReadFull(c, got); err != nil {
			probeErr = err
		}
	})
	m.set("probe.hostos.conn_10k_us", ns/1e3, "us")
	return probeErr
}

// probeRing moves 4 KiB chunks through a pipe-sized ring.
func probeRing(m metrics) error {
	const chunks = 256
	r := ring.New(64 << 10)
	in := make([]byte, fsChunk)
	out := make([]byte, fsChunk)
	short := false
	ns := timeReps(probeReps, func() {
		for i := 0; i < chunks; i++ {
			if r.Write(in) != fsChunk || r.Read(out) != fsChunk {
				short = true
			}
		}
	})
	if short {
		return fmt.Errorf("ring probe: short transfer")
	}
	m.set("probe.ring.copy_mib_per_s", float64(chunks*fsChunk)/(1<<20)/(ns/1e9), "MiB/s")
	return nil
}

// probeHostFile overwrites a 2 MiB host file in place in 4 KiB writes,
// the simulated block device under the BlockStore.
func probeHostFile(m metrics) error {
	h := hostos.New()
	h.WriteFile("probe.bin", make([]byte, fsWriteSize))
	buf := make([]byte, fsChunk)
	const writes = fsWriteSize / fsChunk
	ns := timeReps(probeReps, func() {
		for i := 0; i < writes; i++ {
			h.WriteFileAt("probe.bin", i*fsChunk, buf)
		}
	})
	m.set("probe.hostos.write_file_at_4k_us", ns/writes/1e3, "us")
	return nil
}

// --- fs -------------------------------------------------------------------------

// probeStoreBlocks matches the LibOS default image (Config.FSBlocks), so
// Flush commits a version table of the size the workloads commit.
const probeStoreBlocks = 16384

// storeProbe times WriteBlock, Flush and ReadBlock over as many blocks
// as one fs_write op dirties. k = m = 0 selects the default geometry.
func storeProbe(k, mm int) (writeUS, flushUS, readUS float64, err error) {
	const blocks = fsWriteSize / fsChunk
	h := hostos.New()
	key := fs.KeyFromString("probe")
	var s *fs.BlockStore
	if k == 0 {
		s, err = fs.CreateStore(h, "probe.img", key, probeStoreBlocks)
	} else {
		s, err = fs.CreateStoreGeom(h, "probe.img", key, probeStoreBlocks, k, mm)
	}
	if err != nil {
		return 0, 0, 0, err
	}
	data := randomBytes(1, 0x57, fs.BlockSize)
	var writes, flushes, reads []float64
	// Two untimed rounds first: they grow the backing files to cover
	// both A/B slots of every block, which the simulated host does by
	// reallocating the whole file.
	for round := 0; round < 12; round++ {
		timed := round >= 2
		for i := 0; i < blocks; i++ {
			t0 := time.Now()
			if err := s.WriteBlock(i, data); err != nil {
				return 0, 0, 0, err
			}
			if timed {
				writes = append(writes, float64(time.Since(t0).Nanoseconds()))
			}
		}
		t0 := time.Now()
		if err := s.Flush(); err != nil {
			return 0, 0, 0, err
		}
		if timed {
			flushes = append(flushes, float64(time.Since(t0).Nanoseconds()))
		}
	}
	for i := 0; i < blocks; i++ {
		t0 := time.Now()
		got, err := s.ReadBlock(i)
		if err != nil {
			return 0, 0, 0, err
		}
		reads = append(reads, float64(time.Since(t0).Nanoseconds()))
		if !bytes.Equal(got, data) {
			return 0, 0, 0, fmt.Errorf("store probe: block %d: %w", i, errMismatch)
		}
	}
	return p10(writes) / 1e3, p10(flushes) / 1e3, p10(reads) / 1e3, nil
}

func probeStore(m metrics) error {
	w, f, r, err := storeProbe(0, 0)
	if err != nil {
		return err
	}
	m.set("probe.fs.store.write_block_us", w, "us")
	m.set("probe.fs.store.flush_us", f, "us")
	m.set("probe.fs.store.read_block_us", r, "us")
	// The RS codec is unexported; a 1+1 geometry writes the same bytes
	// without striping across six files, so the difference from the
	// default 4+2 is the striping/RS cost.
	w, _, _, err = storeProbe(1, 1)
	if err != nil {
		return err
	}
	m.set("probe.fs.store.write_block_us_k1m1", w, "us")
	return nil
}

// probeEncFS replays the fs workloads' access patterns on a mount of its
// own: 2 MiB written in 4 KiB chunks, a 2 MiB file read from a warm
// cache, and an 8 MiB file read sequentially over the 1024-page cache.
func probeEncFS(m metrics) error {
	h := hostos.New()
	s, err := fs.CreateStore(h, "probe.img", fs.KeyFromString("probe"), probeStoreBlocks)
	if err != nil {
		return err
	}
	if err := fs.Mkfs(s); err != nil {
		return err
	}
	efs, err := fs.Mount(s)
	if err != nil {
		return err
	}
	buf := make([]byte, fsChunk)

	// pass walks size bytes of path in 4 KiB chunks, timing each call.
	pass := func(path string, size int, write bool) ([]float64, error) {
		flags := fs.ORdOnly
		if write {
			flags = fs.OWrOnly | fs.OCreate | fs.OTrunc
		}
		f, err := efs.Open(path, flags)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		xs := make([]float64, 0, size/fsChunk)
		for off := 0; off < size; off += fsChunk {
			t0 := time.Now()
			if write {
				_, err = f.WriteAt(buf, int64(off))
			} else {
				_, err = f.ReadAt(buf, int64(off))
			}
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(time.Since(t0).Nanoseconds()))
		}
		return xs, nil
	}
	// many concatenates the samples of n passes.
	many := func(n int, path string, size int, write bool) ([]float64, error) {
		var all []float64
		for i := 0; i < n; i++ {
			xs, err := pass(path, size, write)
			if err != nil {
				return nil, err
			}
			all = append(all, xs...)
			if write {
				if err := efs.Sync(); err != nil {
					return nil, err
				}
			}
		}
		return all, nil
	}

	if _, err := many(2, "/w.bin", fsWriteSize, true); err != nil {
		return err
	}
	xs, err := many(4, "/w.bin", fsWriteSize, true)
	if err != nil {
		return err
	}
	m.set("probe.fs.encfs.write_4k_us", p10(xs)/1e3, "us")

	if _, err := pass("/w.bin", fsWriteSize, false); err != nil {
		return err
	}
	xs, err = many(4, "/w.bin", fsWriteSize, false)
	if err != nil {
		return err
	}
	m.set("probe.fs.encfs.read_4k_hit_us", p10(xs)/1e3, "us")

	// The miss pass replays fs_read: written, synced, then read through
	// a fresh mount (EncFS caches every block it allocates, so the mount
	// that wrote the file would serve it all from memory). The first
	// pass is untimed; each later pass still finds the other half of the
	// file in the cache, never the half it is about to read.
	if _, err := many(1, "/big.bin", fsReadSize, true); err != nil {
		return err
	}
	if efs, err = fs.Mount(s); err != nil {
		return err
	}
	if _, err := pass("/big.bin", fsReadSize, false); err != nil {
		return err
	}
	r0, _, _ := efs.CacheStats()
	xs, err = pass("/big.bin", fsReadSize, false)
	if err != nil {
		return err
	}
	r1, _, _ := efs.CacheStats()
	m.set("probe.fs.encfs.read_4k_miss_us", p10(xs)/1e3, "us")
	// ≥ 1 means the pass was served from the device, not the cache.
	m.set("probe.fs.encfs.miss_dev_reads_per_blk", float64(r1-r0)/float64(fsReadSize/fsChunk), "ratio")
	return nil
}
