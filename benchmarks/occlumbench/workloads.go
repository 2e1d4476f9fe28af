package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/libos"
	"repro/internal/workloads"
)

// errMismatch marks an op whose output differed from the oracle. It
// fails the whole run, not just the op: a benchmark that computes the
// wrong answer faster has measured nothing.
var errMismatch = errors.New("output differs from oracle")

// workload is one closed-loop benchmark: a single client issues the next
// op only after the previous one completed and was checked.
type workload struct {
	name string
	why  string
	// warmup ops run before any timing: they fill the translation
	// caches, the EncFS page cache and the Go heap to steady state.
	warmup int
	// tracedOps is the fixed length of the traced phase.
	tracedOps int
	// maxOpsPerSec sizes the latency buffer of the timed phase, which
	// is allocated and touched before the phase starts so that neither
	// alloc_kib_per_op nor peak_rss_mib depends on how many ops a run
	// completed. Several times the rate measured on the sizing machine;
	// a faster machine only pays a reallocation.
	maxOpsPerSec int
	// spawnsSmall / spawns4MiB are the SIP spawns one op performs, by
	// binary size class, and storeBlocks the 4 KiB blocks it moves
	// through the BlockStore (written and committed for fs_write, read
	// for fs_read); they scale the spawn and store probes into
	// model.spawn_share and model.store_share.
	spawnsSmall, spawns4MiB int
	storeBlocks             int
	storeWrite              bool
	// prepare derives the seeded inputs and the oracle once per process
	// and returns boot, which builds a fresh kernel with everything
	// installed. Only boot (plus warm-up) is timed as set-up.
	prepare func(seed uint64) (boot func() (*instance, error), err error)
}

// instance is one booted kernel with the workload installed.
type instance struct {
	k *workloads.OcclumKernel
	// op runs one operation and checks its output; spans go to t (nil
	// when tracing is off).
	op func(t *tracer) error
	// verify, when set, is the end-of-run oracle for state the ops
	// leave behind.
	verify func() error
	// close stops what boot started and shuts the kernel down.
	close func() error
}

// spec sizes the Occlum kernel: one hart always (the benchmark measures
// path length on one P, README "Why one P"), and only as many domains
// as the workload keeps live, because boot measures every domain page.
func spec(domains int, data uint64) workloads.KernelSpec {
	s := workloads.DefaultSpec()
	s.Domains = domains
	s.DomainData = data
	s.Harts = 1
	return s
}

const (
	fishInputSize = 16 << 10
	gccSourceSize = 512 << 10
	fsWriteSize   = 2 << 20
	fsReadSize    = 8 << 20 // twice the 1024-page EncFS cache
	fsChunk       = 4096
	httpPort      = 9000
	httpWorkers   = 2
)

// gccStages are the Quick-scale stages of Fig 5b: cc1 carries the
// compute and a 4 MiB image, so the size-dependent spawn path (EncFS
// read, signature check, domain copy) stays in view.
var gccStages = []workloads.GCCStage{
	{Path: "/bin/cpp", Work: 2, Pad: 64 << 10},
	{Path: "/bin/cc1", Work: 10, Pad: 4 << 20},
	{Path: "/bin/as", Work: 3, Pad: 128 << 10},
	{Path: "/bin/ld", Work: 2, Pad: 256 << 10},
}

var allWorkloads = []*workload{
	{
		name:         "fish",
		why:          "5 spawns + 4 pipes per op: libos spawn/loader/signature check, ring pipes and sched dominate, vm does little",
		warmup:       20,
		tracedOps:    200,
		maxOpsPerSec: 2000,
		spawnsSmall:  5,
		prepare: func(seed uint64) (func() (*instance, error), error) {
			input := fishInput(seed, fishInputSize)
			return preparePipeline(spec(8, 4<<20), func(k workloads.Kernel) (string, error) {
				driver, err := workloads.InstallFish(k, len(input))
				if err != nil {
					return "", err
				}
				return driver, k.WriteInput("/data/fish.in", input)
			})
		},
	},
	{
		name:         "gcc",
		why:          "cpp|cc1|as|ld on 512 KiB: vm + mmdsfi guards dominate (~11 M guest insts/op); 4 MiB cc1 keeps size-dependent spawn in view",
		warmup:       3,
		tracedOps:    40,
		maxOpsPerSec: 200,
		spawnsSmall:  4,
		spawns4MiB:   1,
		prepare: func(seed uint64) (func() (*instance, error), error) {
			src := sourceText(seed, gccSourceSize)
			return preparePipeline(spec(6, 8<<20), func(k workloads.Kernel) (string, error) {
				driver, err := workloads.InstallGCC(k, "bench", len(src), gccStages)
				if err != nil {
					return "", err
				}
				return driver, k.WriteInput("/data/bench.c", src)
			})
		},
	},
	{
		name:         "httpd",
		why:          "one client, dial/GET/read/close: libos netpoll, hostos net and sched park/unpark are the whole cost; vm and fs must not move it",
		warmup:       2000,
		tracedOps:    2000,
		maxOpsPerSec: 250000,
		prepare:      prepareHTTPD,
	},
	{
		name:         "fs_write",
		why:          "SIP writes 2 MiB then Sync: past the page cache into encrypt, MAC, RS encode, host write and A/B commit",
		warmup:       3,
		tracedOps:    50,
		maxOpsPerSec: 500,
		spawnsSmall:  1,
		storeBlocks:  fsWriteSize / fsChunk,
		storeWrite:   true,
		prepare:      prepareFSWrite,
	},
	{
		name:         "fs_read",
		why:          "SIP reads 8 MiB, twice the EncFS cache: host read, crc, MAC verify, decrypt on every block; the fs layer used the other way",
		warmup:       3,
		tracedOps:    200,
		maxOpsPerSec: 500,
		spawnsSmall:  1,
		storeBlocks:  fsReadSize / fsChunk,
		prepare:      prepareFSRead,
	},
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// spawnWait runs the SIP at path to completion under the libos.spawn and
// libos.wait spans and fails on a non-zero exit status.
func spawnWait(k *workloads.OcclumKernel, t *tracer, path string, stdout io.Writer) error {
	t.begin("libos.spawn")
	p, err := k.Spawn(path, nil, stdout)
	t.end()
	if err != nil {
		return fmt.Errorf("spawn %s: %w", path, err)
	}
	t.begin("libos.wait")
	status := p.Wait()
	t.end()
	if status != 0 {
		return fmt.Errorf("%s: exit status %d", path, status)
	}
	return nil
}

// preparePipeline serves fish and gcc. The oracle is the same pipeline
// run once on the native-Linux baseline kernel — uninstrumented code on
// a different kernel — and every Occlum op's stdout must match it byte
// for byte.
func preparePipeline(s workloads.KernelSpec, install func(workloads.Kernel) (string, error)) (func() (*instance, error), error) {
	lk := workloads.NewLinuxKernel(s)
	driver, err := install(lk)
	if err != nil {
		return nil, fmt.Errorf("oracle install: %w", err)
	}
	var want bytes.Buffer
	status, err := workloads.RunToCompletion(lk, driver, nil, &want)
	if err != nil || status != 0 || want.Len() == 0 {
		return nil, fmt.Errorf("oracle run: status %d, %d bytes, err %v", status, want.Len(), err)
	}
	return func() (*instance, error) {
		k, err := workloads.NewOcclumKernel(s)
		if err != nil {
			return nil, err
		}
		driver, err := install(k)
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		out.Grow(want.Len())
		return &instance{
			k: k,
			op: func(t *tracer) error {
				out.Reset()
				if err := spawnWait(k, t, driver, &out); err != nil {
					return err
				}
				if !bytes.Equal(out.Bytes(), want.Bytes()) {
					return fmt.Errorf("%s stdout: %w", driver, errMismatch)
				}
				return nil
			},
			close: k.Sys.OS.Shutdown,
		}, nil
	}, nil
}

// prepareHTTPD: the page is a constant of the server binary, so the seed
// has nothing to vary; the oracle is the known response.
func prepareHTTPD(uint64) (func() (*instance, error), error) {
	want := make([]byte, workloads.ResponseSize)
	copy(want[copy(want, workloads.ResponseHeader):], "<html>occlum</html>")
	req := []byte("GET / HTTP/1.0\r\n\r\n")
	return func() (*instance, error) {
		k, err := workloads.NewOcclumKernel(spec(4, 4<<20))
		if err != nil {
			return nil, err
		}
		master, err := workloads.InstallHTTPD(k, httpPort, httpWorkers)
		if err != nil {
			return nil, err
		}
		server, err := k.Spawn(master, nil, nil)
		if err != nil {
			return nil, err
		}
		host := k.Host()
		got := make([]byte, workloads.ResponseSize)
		op := func(t *tracer) error {
			t.begin("hostos.dial")
			c, err := host.Dial(httpPort)
			t.end()
			if err != nil {
				return fmt.Errorf("dial: %w", err)
			}
			t.begin("hostos.write")
			_, err = c.Write(req)
			t.end()
			n := 0
			if err == nil {
				t.begin("hostos.read")
				n, err = io.ReadFull(c, got)
				t.end()
			}
			t.begin("hostos.close")
			c.Close()
			t.end()
			if err != nil {
				return fmt.Errorf("request: %d of %d bytes: %w", n, len(got), err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("response: %w", errMismatch)
			}
			return nil
		}
		// The master binds asynchronously; only this first request may
		// be refused and retried.
		deadline := time.Now().Add(5 * time.Second)
		for err = op(nil); err != nil; err = op(nil) {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("server never came up: %w", err)
			}
			time.Sleep(time.Millisecond)
		}
		return &instance{
			k:  k,
			op: op,
			close: func() error {
				workloads.StopHTTPD(k, httpPort, httpWorkers)
				if status := server.Wait(); status != 0 {
					return fmt.Errorf("httpd master: exit status %d", status)
				}
				return k.Sys.OS.Shutdown()
			},
		}, nil
	}, nil
}

// bootFileIO prepares an image holding the file at path and a sequential
// BuildSeqFileIO SIP over it, then boots the kernel under test from that
// image. The second boot matters: EncFS caches every block it allocates
// without bound, so on the kernel that wrote an 8 MiB file every later
// read is a cache hit. A kernel booted from the finished image starts
// with a cold 1024-page cache, as a deployed one does.
func bootFileIO(path string, content []byte, size int, write bool) (*workloads.OcclumKernel, string, error) {
	s := spec(2, 4<<20)
	k, err := workloads.NewOcclumKernel(s)
	if err != nil {
		return nil, "", err
	}
	if err := k.WriteInput(path, content); err != nil {
		return nil, "", err
	}
	prog, err := workloads.BuildSeqFileIO(path, size, fsChunk, write)
	if err != nil {
		return nil, "", err
	}
	const bin = "/bin/seqio"
	if err := k.InstallProgram(bin, prog); err != nil {
		return nil, "", err
	}
	k, err = reboot(k, s)
	return k, bin, err
}

// reboot shuts k down (which syncs its filesystem) and boots a kernel of
// the same spec on a new host holding k's store files.
func reboot(k *workloads.OcclumKernel, s workloads.KernelSpec) (*workloads.OcclumKernel, error) {
	if err := k.Sys.OS.Shutdown(); err != nil {
		return nil, err
	}
	image := map[string][]byte{}
	for _, name := range k.Sys.OS.Store().BackingFiles() {
		data, err := k.Sys.Host.ReadFile(name)
		if err != nil {
			return nil, err
		}
		image[name] = data
	}
	// workloads.NewOcclumKernel cannot take host files, so its mapping
	// from spec to config is repeated here.
	lc := libos.DefaultConfig()
	lc.NumDomains = s.Domains
	lc.DomainCodeSize = s.DomainCode
	lc.DomainDataSize = s.DomainData
	lc.MaxThreads = s.Harts
	lc.VerifierKey = k.TC.Key()
	sys, err := core.BootSystem(core.SystemConfig{LibOS: lc, EPCBytes: 4 << 30, HostFiles: image})
	if err != nil {
		return nil, err
	}
	return &workloads.OcclumKernel{Sys: sys, TC: k.TC}, nil
}

// prepareFSWrite: the SIP's buffer is a constant (zeros), so the seed
// sets what the file held before — seeded bytes the first O_TRUNC must
// discard. The read-back oracle therefore fails on a write that was
// silently dropped, not only on a corrupted one.
func prepareFSWrite(seed uint64) (func() (*instance, error), error) {
	const path = "/data/out.bin"
	old := randomBytes(seed, 0xf5, fsWriteSize)
	want := make([]byte, fsWriteSize)
	return func() (*instance, error) {
		k, bin, err := bootFileIO(path, old, fsWriteSize, true)
		if err != nil {
			return nil, err
		}
		return &instance{
			k: k,
			op: func(t *tracer) error {
				if err := spawnWait(k, t, bin, nil); err != nil {
					return err
				}
				t.begin("libos.sync")
				err := k.Sys.OS.Sync()
				t.end()
				return err
			},
			verify: func() error { return checkFile(k, path, want) },
			close:  k.Sys.OS.Shutdown,
		}, nil
	}, nil
}

// prepareFSRead: the SIP checks that every read moved a full chunk; the
// bytes themselves are checked against the seeded content through the
// host-side read path once the run is over.
func prepareFSRead(seed uint64) (func() (*instance, error), error) {
	const path = "/data/in.bin"
	content := randomBytes(seed, 0xf6, fsReadSize)
	return func() (*instance, error) {
		k, bin, err := bootFileIO(path, content, fsReadSize, false)
		if err != nil {
			return nil, err
		}
		return &instance{
			k:      k,
			op:     func(t *tracer) error { return spawnWait(k, t, bin, nil) },
			verify: func() error { return checkFile(k, path, content) },
			close:  k.Sys.OS.Shutdown,
		}, nil
	}, nil
}

func checkFile(k *workloads.OcclumKernel, path string, want []byte) error {
	got, err := k.Sys.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read back %s: %w", path, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("read back %s (%d bytes, want %d): %w", path, len(got), len(want), errMismatch)
	}
	return nil
}
