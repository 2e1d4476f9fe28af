package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/ulib"
	"repro/internal/workloads"
)

// buildTrivial builds a program that exits immediately, padded with
// static data to the requested binary size (Figure 6a's hello/busybox/cc1
// size ladder).
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

// spawnRepeats is how many timed spawns follow the first one.
const spawnRepeats = 3

// spawnCounts is what one Figure 6a binary cost the Occlum kernel in
// exact counts: First for the spawn right after install, Repeat summed
// over the spawnRepeats timed spawns that follow.
type spawnCounts struct {
	First, Repeat libos.SpawnSnapshot
}

// Fig6aSpawn measures process-creation latency for three binary sizes
// (paper: Occlum 97 µs → 63 ms scaling with size; Linux ≈ 170 µs flat;
// Graphene-SGX 0.64–0.89 s dominated by enclave creation). Occlum gets
// two rows: its first spawn of a binary reads the whole image through
// the encrypted FS and verifies it — the paper's size-proportional cost —
// and every later spawn of the unchanged file loads the cached image into
// a domain that still holds its code (a warm slot), copying the data
// segment alone.
func Fig6aSpawn(s Scale) (*Table, error) {
	t, _, err := fig6aSpawn(s)
	return t, err
}

// fig6aSpawn is Fig6aSpawn that also returns, per binary size, the
// Occlum kernel's libos.SpawnStats deltas: the counts are exact where the
// milliseconds are wall clock, so they are what the always-on test
// asserts.
func fig6aSpawn(s Scale) (*Table, []spawnCounts, error) {
	t := &Table{
		Title:   "Figure 6a — process creation latency by binary size",
		Columns: make([]string, len(s.SpawnSizes)),
		Unit:    "ms",
	}
	for i, sb := range s.SpawnSizes {
		t.Columns[i] = sb.Name
	}
	kernels, err := workloads.AllKernels(s.kernelSpec())
	if err != nil {
		return nil, nil, err
	}
	var counts []spawnCounts
	for _, k := range kernels {
		occ, _ := k.(*workloads.OcclumKernel)
		first, row := Row{Label: k.Name() + " (first spawn)"}, Row{Label: k.Name()}
		for _, sb := range s.SpawnSizes {
			prog, err := buildTrivial(sb.Pad)
			if err != nil {
				return nil, nil, err
			}
			path := "/bin/" + sb.Name
			if err := k.InstallProgram(path, prog); err != nil {
				return nil, nil, fmt.Errorf("%s %s: %w", k.Name(), sb.Name, err)
			}
			spawn := func() (time.Duration, error) {
				start := time.Now()
				status, err := workloads.RunToCompletion(k, path, nil, nil)
				if err != nil || status != 0 {
					return 0, fmt.Errorf("%s: status %d err %v", k.Name(), status, err)
				}
				return time.Since(start), nil
			}
			var c spawnCounts
			var s0 libos.SpawnSnapshot
			if occ != nil {
				s0 = occ.Sys.OS.SpawnStats()
			}
			// Warm once (fills the native page cache, as the paper's
			// measurements do; on Occlum, the one spawn that verifies),
			// then take the best of the repeats.
			d, err := spawn()
			if err != nil {
				return nil, nil, err
			}
			first.Values = append(first.Values, ms(d))
			if occ != nil {
				c.First = occ.Sys.OS.SpawnStats().Sub(s0)
			}
			best := time.Duration(1 << 62)
			for i := 0; i < spawnRepeats; i++ {
				d, err := spawn()
				if err != nil {
					return nil, nil, err
				}
				best = min(best, d)
			}
			row.Values = append(row.Values, ms(best))
			if occ != nil {
				c.Repeat = occ.Sys.OS.SpawnStats().Sub(s0).Sub(c.First)
				counts = append(counts, c)
			}
		}
		if occ != nil {
			t.Rows = append(t.Rows, first)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, counts, nil
}

// buildPipePump builds the Figure 6b measurement program: it creates a
// pipe, spawns a drain process, pumps total bytes through in chunks of
// the given size, and waits.
func buildPipePump(total, chunk int) (*asm.Program, error) {
	const drainPath = "/bin/drain"
	b := asm.NewBuilder()
	b.Zero("pfds", 16)
	b.Zero("chunk", chunk)
	b.String("drain", drainPath)
	b.Entry("_start")
	ulib.Prologue(b)
	pipeToDrain(b, drainPath, isa.R9)
	// Pump.
	b.MovRI(isa.R8, int64(total/chunk))
	b.Label("pump")
	b.MovRI(isa.R1, workloads.FilterOut)
	b.LeaData(isa.R2, "chunk")
	b.MovRI(isa.R3, int64(chunk))
	ulib.Syscall(b, libos.SysWrite)
	b.SubI(isa.R8, 1)
	b.CmpI(isa.R8, 0)
	b.Jg("pump")
	b.MovRI(isa.R1, workloads.FilterOut)
	ulib.Syscall(b, libos.SysClose)
	ulib.Wait4(b, isa.R9)
	ulib.Exit(b, 0)
	return b.Finish()
}

// pipeToDrain emits the prologue of both pipe pumps (this one and
// buildIPCPipePump): pipe2 into the 16-byte data symbol "pfds", dup2
// the read end to workloads.FilterIn (the drain's input) and the write
// end to workloads.FilterOut, spawn the drain at data symbol "drain"
// (drainPath is its contents) with its pid left in pid, and close the
// parent's read end.
func pipeToDrain(b *asm.Builder, drainPath string, pid isa.Reg) {
	ulib.Pipe2(b, "pfds")
	b.LoadData(isa.R6, "pfds")
	b.MovRR(isa.R1, isa.R6)
	b.MovRI(isa.R2, workloads.FilterIn)
	ulib.Syscall(b, libos.SysDup2)
	ulib.Close(b, isa.R6)
	b.LeaData(isa.R6, "pfds")
	b.Load(isa.R6, isa.Mem(isa.R6, 8))
	b.MovRR(isa.R1, isa.R6)
	b.MovRI(isa.R2, workloads.FilterOut)
	ulib.Syscall(b, libos.SysDup2)
	ulib.Close(b, isa.R6)
	ulib.SpawnPath(b, "drain", int64(len(drainPath)), "", 0)
	b.MovRR(pid, isa.R0)
	b.MovRI(isa.R1, workloads.FilterIn)
	ulib.Syscall(b, libos.SysClose)
}

// buildDrain builds the pipe sink: close the inherited write end, then
// read fd60 to EOF.
func buildDrain() (*asm.Program, error) {
	b := asm.NewBuilder()
	b.Zero("buf", 4096)
	b.Entry("_start")
	ulib.Prologue(b)
	b.MovRI(isa.R1, workloads.FilterOut)
	ulib.Syscall(b, libos.SysClose)
	b.Label("loop")
	b.MovRI(isa.R1, workloads.FilterIn)
	b.LeaData(isa.R2, "buf")
	b.MovRI(isa.R3, 4096)
	ulib.Syscall(b, libos.SysRead)
	b.CmpI(isa.R0, 0)
	b.Jg("loop")
	ulib.Exit(b, 0)
	return b.Finish()
}

// Fig6bPipe measures pipe throughput across chunk sizes (paper: Occlum ≈
// Linux, both >3× Graphene-SGX whose pipes encrypt every message).
func Fig6bPipe(s Scale) (*Table, error) {
	t, _, err := fig6bPipe(s)
	return t, err
}

// fig6bPipe is Fig6bPipe that also returns each row's libos.NetStats
// delta: the byte ledgers are exact where the MB/s are wall clock, so
// they are what the always-on test asserts.
func fig6bPipe(s Scale) (*Table, []libos.NetSnapshot, error) {
	t := &Table{
		Title:   "Figure 6b — pipe throughput by buffer size",
		Columns: make([]string, len(s.PipeBufs)),
		Unit:    "MB/s",
	}
	for i, bs := range s.PipeBufs {
		t.Columns[i] = fmt.Sprintf("%dB", bs)
	}
	kernels, err := workloads.AllKernels(s.kernelSpec())
	if err != nil {
		return nil, nil, err
	}
	var net []libos.NetSnapshot
	for _, k := range kernels {
		drain, err := buildDrain()
		if err != nil {
			return nil, nil, err
		}
		if err := k.InstallProgram("/bin/drain", drain); err != nil {
			return nil, nil, err
		}
		row := Row{Label: k.Name()}
		net0 := libos.NetStats()
		for bi, bs := range s.PipeBufs {
			pump, err := buildPipePump(s.PipeTotal, bs)
			if err != nil {
				return nil, nil, err
			}
			path := fmt.Sprintf("/bin/pump%d", bi)
			if err := k.InstallProgram(path, pump); err != nil {
				return nil, nil, err
			}
			start := time.Now()
			status, err := workloads.RunToCompletion(k, path, nil, io.Discard)
			if err != nil || status != 0 {
				return nil, nil, fmt.Errorf("%s buf %d: status %d err %v", k.Name(), bs, status, err)
			}
			mbps := float64(s.PipeTotal) / (1 << 20) / time.Since(start).Seconds()
			row.Values = append(row.Values, mbps)
		}
		t.Rows = append(t.Rows, row)
		net = append(net, libos.NetStats().Sub(net0))
	}
	return t, net, nil
}

// Fig6cdFileIO measures sequential file I/O throughput on Linux ext4 vs
// Occlum's encrypted FS (paper: Occlum 39% below ext4 on reads, 18% on
// writes; Graphene-SGX excluded — no writable FS). write selects 6d.
func Fig6cdFileIO(s Scale, write bool) (*Table, error) {
	name, fig := "reads", "6c"
	if write {
		name, fig = "writes", "6d"
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure %s — sequential file %s by buffer size", fig, name),
		Columns: make([]string, len(s.FileBufs)),
		Unit:    "MB/s",
	}
	for i, bs := range s.FileBufs {
		t.Columns[i] = fmt.Sprintf("%dB", bs)
	}
	spec := s.kernelSpec()
	occ, err := workloads.NewOcclumKernel(spec)
	if err != nil {
		return nil, err
	}
	kernels := []workloads.Kernel{workloads.NewLinuxKernel(spec), occ}
	for _, k := range kernels {
		row := Row{Label: k.Name()}
		for bi, bs := range s.FileBufs {
			if bs > s.FileTotal {
				row.Values = append(row.Values, 0)
				continue
			}
			file := fmt.Sprintf("/data/io%d.bin", bi)
			// Pre-create (with content for the read case): this also
			// ensures /data exists on filesystems with real
			// directories.
			content := make([]byte, s.FileTotal)
			if write {
				content = nil
			}
			if err := k.WriteInput(file, content); err != nil {
				return nil, err
			}
			prog, err := workloads.BuildSeqFileIO(file, s.FileTotal, bs, write)
			if err != nil {
				return nil, err
			}
			path := fmt.Sprintf("/bin/io%v%d", write, bi)
			if err := k.InstallProgram(path, prog); err != nil {
				return nil, err
			}
			start := time.Now()
			status, err := workloads.RunToCompletion(k, path, nil, nil)
			if err != nil || status != 0 {
				return nil, fmt.Errorf("%s buf %d: status %d err %v", k.Name(), bs, status, err)
			}
			mbps := float64(s.FileTotal) / (1 << 20) / time.Since(start).Seconds()
			row.Values = append(row.Values, mbps)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
