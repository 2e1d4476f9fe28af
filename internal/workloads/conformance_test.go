package workloads

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/ulib"
)

// The conformance guest: a parent that plumbs a pipe onto fds 60/61 with
// dup2, spawns a child that inherits them, and then logs the result of
// every call it makes — as 8-byte little-endian records on stdout — so
// that three kernels dispatching through one sysdispatch.Table can be
// compared byte for byte. The child sends one scalar write and one
// 3-span writev and exits with status 5; the parent reaps it first, so
// every byte is queued and the write end closed before it reads (EIP
// pipes keep message boundaries, the others are byte streams: the read
// sizes below are the ones both shapes answer identically).
const (
	confScalar = "scalar-one"
	confVector = "vec-gathered!" // sent as spans of 4, 4 and 5 bytes
)

func buildConformChild() (*asm.Program, error) {
	b := asm.NewBuilder()
	b.String("a", confScalar)
	b.String("b", confVector)
	b.Zero("iov", 48)
	b.Entry("_start")
	ulib.Prologue(b)
	b.MovRI(isa.R1, FilterIn)
	ulib.Syscall(b, libos.SysClose)
	ulib.WriteStr(b, FilterOut, "a", int64(len(confScalar)))
	b.CmpI(isa.R0, int32(len(confScalar)))
	b.Jne("fail")
	for i, span := range [][2]int32{{0, 4}, {4, 4}, {8, 5}} {
		b.LeaData(isa.R5, "b")
		b.AddI(isa.R5, span[0])
		ulib.IovSetReg(b, "iov", int64(i), isa.R5, int64(span[1]))
	}
	b.MovRI(isa.R6, FilterOut)
	ulib.Writev(b, isa.R6, "iov", 3)
	b.CmpI(isa.R0, int32(len(confVector)))
	b.Jne("fail")
	ulib.Exit(b, 5)
	b.Label("fail")
	b.Nop()
	ulib.Exit(b, 90)
	return b.Finish()
}

// confCommon is what every kernel must log, in order; the payload bytes
// follow the last record. confSurface is the filesystem surface that
// differs by design, logged after the payload.
var confCommon = []struct {
	call string
	want int64
}{
	{"pipe2", 0},
	{"dup2(r, 60)", FilterIn},
	{"dup2(w, 61)", FilterOut},
	{"dup2(r, -7): a target below 0", -libos.EBADF},
	{"dup2(r, 1<<40): a target at or above MaxFD", -libos.EBADF},
	{"close(r)", 0},
	{"close(w)", 0},
	{"close(61) in the parent", 0},
	{"wait4 status word (90: the child's writes came up short)", 5},
	{"wait4 again: the child was reaped", -libos.ECHILD},
	{"spawn of a path that does not exist", -libos.ENOENT},
	{"read(60, 10)", int64(len(confScalar))},
	{"readv(60, [4, 4, 100]) — short final span", int64(len(confVector))},
	{"read(60) at EOF: the writer exited", 0},
	{"close(60)", 0},
	{"close(60) again", -libos.EBADF},
	{"read(60) after close", -libos.EBADF},
	{"syscall 50 (below SysMax, unregistered)", -libos.ENOSYS},
	{"syscall 1000 (above SysMax)", -libos.ENOSYS},
	{"read on an unconnected socket", -libos.ENOTCONN},
	{"write on an unconnected socket", -libos.ENOTCONN},
	{"bind of a free port", 0},
	{"bind of a taken port", -libos.EADDRINUSE},
	{"connect to a port with no listener", -libos.ECONNREFUSED},
}

// confPort is the port the conformance guest binds; confPort+1 has no
// listener.
const confPort = 7390

var confSurfaceCalls = []string{"mkdir", "unlink", "lseek", "rename", "fsync",
	"rename of an open file", "write through its fd", "open of the old name"}

// confSurface: Occlum has the full writable VFS; the native baseline
// models a flat plaintext namespace without directories (mkdir/unlink
// unregistered); the EIP filesystem is sealed and read-only (Table 1)
// and its lseek/rename/fsync are not modeled. An fd follows its file
// across a rename on both kernels that register rename: the write lands
// in the new name and the old name stays gone (the sealed EIP
// filesystem refuses the create, so its write finds no fd). The socket
// rows are common: every kernel's errno comes from one table
// (sysdispatch.Err), so an unconnected socket is ENOTCONN and a taken
// port EADDRINUSE everywhere.
var confSurface = map[string][]int64{
	"Occlum":       {0, -libos.ENOENT, 3, -libos.ENOENT, 0, 0, 1, -libos.ENOENT},
	"Linux":        {-libos.ENOSYS, -libos.ENOSYS, 3, -libos.ENOENT, 0, 0, 1, -libos.ENOENT},
	"Graphene-SGX": {-libos.EACCES, -libos.EACCES, -libos.ENOSYS, -libos.ENOSYS, -libos.ENOSYS, -libos.ENOSYS, -libos.EBADF, -libos.ENOENT},
}

func buildConformParent(childPath, inputPath string) (*asm.Program, error) {
	b := asm.NewBuilder()
	b.Zero("fds", 16)
	b.Zero("rec", 8)
	b.Zero("buf", 128)
	b.Zero("iov", 48)
	b.String("child", childPath)
	b.String("in", inputPath)
	b.String("dir", "/confdir")
	b.String("nope", "/nope")
	b.String("mv", "/conf.mv")
	b.String("mv2", "/conf.mv2")
	b.Entry("_start")
	ulib.Prologue(b)
	log := func() { // clobbers R0..R3
		b.StoreData("rec", isa.R0)
		ulib.WriteStr(b, 1, "rec", 8)
	}
	closeFD := func(fd int64) {
		b.MovRI(isa.R1, fd)
		ulib.Syscall(b, libos.SysClose)
		log()
	}
	readBuf := func(n int64) {
		b.MovRI(isa.R1, FilterIn)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, n)
		ulib.Syscall(b, libos.SysRead)
		log()
	}

	ulib.Pipe2(b, "fds")
	log()
	b.LoadData(isa.R6, "fds")
	b.LeaData(isa.R7, "fds")
	b.Load(isa.R7, isa.Mem(isa.R7, 8))
	b.MovRI(isa.R5, FilterIn)
	ulib.Dup2(b, isa.R6, isa.R5)
	log()
	b.MovRI(isa.R5, FilterOut)
	ulib.Dup2(b, isa.R7, isa.R5)
	log()
	for _, bad := range []int64{-7, 1 << 40} {
		b.MovRI(isa.R5, bad)
		ulib.Dup2(b, isa.R6, isa.R5)
		log()
	}
	ulib.Close(b, isa.R6)
	log()
	ulib.Close(b, isa.R7)
	log()
	ulib.SpawnPath(b, "child", int64(len(childPath)), "", 0)
	b.MovRR(isa.R6, isa.R0) // pid: not logged, kernels may number differently
	b.CmpI(isa.R6, 0)
	b.Jle("fail")
	closeFD(FilterOut)
	b.MovRR(isa.R1, isa.R6)
	b.LeaData(isa.R2, "rec")
	ulib.Syscall(b, libos.SysWait4)
	b.Cmp(isa.R0, isa.R6)
	b.Jne("fail")
	ulib.WriteStr(b, 1, "rec", 8)
	ulib.Wait4(b, isa.R6)
	log()
	ulib.SpawnPath(b, "nope", 5, "", 0)
	log()

	readBuf(int64(len(confScalar)))
	for i, span := range [][2]int32{{10, 4}, {14, 4}, {18, 100}} {
		b.LeaData(isa.R5, "buf")
		b.AddI(isa.R5, span[0])
		ulib.IovSetReg(b, "iov", int64(i), isa.R5, int64(span[1]))
	}
	b.MovRI(isa.R6, FilterIn)
	ulib.Readv(b, isa.R6, "iov", 3)
	log()
	b.MovRI(isa.R1, FilterIn)
	b.LeaData(isa.R2, "rec") // must not disturb the payload in buf
	b.MovRI(isa.R3, 8)
	ulib.Syscall(b, libos.SysRead)
	log()
	closeFD(FilterIn)
	closeFD(FilterIn)
	b.MovRI(isa.R1, FilterIn)
	b.LeaData(isa.R2, "rec")
	b.MovRI(isa.R3, 8)
	ulib.Syscall(b, libos.SysRead)
	log()
	ulib.Syscall(b, 50)
	log()
	ulib.Syscall(b, 1000)
	log()
	// A socket that was never connected has no stream to read or
	// write; every kernel's description says so with one sentinel.
	ulib.Socket(b)
	b.MovRR(isa.R6, isa.R0)
	for _, no := range []int64{libos.SysRead, libos.SysWrite} {
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "rec")
		b.MovRI(isa.R3, 8)
		ulib.Syscall(b, no)
		log()
	}
	ulib.Bind(b, isa.R6, confPort)
	log()
	ulib.Socket(b)
	b.MovRR(isa.R7, isa.R0)
	ulib.Bind(b, isa.R7, confPort)
	log()
	ulib.Connect(b, isa.R7, confPort+1)
	log()
	ulib.WriteStr(b, 1, "buf", int64(len(confScalar)+len(confVector)))

	b.LeaData(isa.R1, "dir")
	b.MovRI(isa.R2, 8)
	ulib.Syscall(b, libos.SysMkdir)
	log()
	b.LeaData(isa.R1, "nope")
	b.MovRI(isa.R2, 5)
	ulib.Syscall(b, libos.SysUnlink)
	log()
	ulib.OpenPath(b, "in", int64(len(inputPath)), libos.ORdOnly)
	b.MovRR(isa.R1, isa.R0)
	b.CmpI(isa.R1, 0)
	b.Jl("fail")
	b.MovRI(isa.R2, 3)
	b.MovRI(isa.R3, libos.SeekSet)
	ulib.Syscall(b, libos.SysLseek)
	log()
	ulib.RenamePath(b, "nope", 5, "dir", 8)
	log()
	b.MovRI(isa.R1, 1)
	ulib.Syscall(b, libos.SysFsync)
	log()
	ulib.OpenPath(b, "mv", 8, libos.ORdWr|libos.OCreate)
	b.MovRR(isa.R7, isa.R0)
	ulib.RenamePath(b, "mv", 8, "mv2", 9)
	log()
	b.MovRR(isa.R1, isa.R7)
	b.LeaData(isa.R2, "buf")
	b.MovRI(isa.R3, 1)
	ulib.Syscall(b, libos.SysWrite)
	log()
	ulib.OpenPath(b, "mv", 8, libos.ORdOnly)
	log()
	ulib.Exit(b, 7)
	b.Label("fail")
	b.Nop()
	ulib.Exit(b, 91)
	return b.Finish()
}

// TestCrossKernelConformance runs the conformance guest on Occlum, the
// native baseline and Graphene-SGX: the common transcript (every logged
// result, then the payload) and the exit status must be byte-identical
// across the three and equal to the table; the filesystem surface that
// differs by design is asserted per kernel, not skipped.
func TestCrossKernelConformance(t *testing.T) {
	wantCommon := new(bytes.Buffer)
	for _, c := range confCommon {
		binary.Write(wantCommon, binary.LittleEndian, c.want)
	}
	wantCommon.WriteString(confScalar + confVector)

	for _, k := range testKernels(t) {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			child, err := buildConformChild()
			if err != nil {
				t.Fatal(err)
			}
			parent, err := buildConformParent("/bin/conf-child", "/conf.in")
			if err != nil {
				t.Fatal(err)
			}
			if err := k.InstallProgram("/bin/conf-child", child); err != nil {
				t.Fatal(err)
			}
			if err := k.InstallProgram("/bin/conf", parent); err != nil {
				t.Fatal(err)
			}
			if err := k.WriteInput("/conf.in", []byte("seekable")); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			status, err := RunToCompletion(k, "/bin/conf", nil, &out)
			if err != nil {
				t.Fatal(err)
			}
			if status != 7 {
				t.Fatalf("exit status = %d, want 7 (91: spawn, wait4 or open failed)", status)
			}
			got := out.Bytes()
			if len(got) != wantCommon.Len()+8*len(confSurfaceCalls) {
				t.Fatalf("transcript is %d bytes, want %d", len(got), wantCommon.Len()+8*len(confSurfaceCalls))
			}
			common, surface := got[:wantCommon.Len()], got[wantCommon.Len():]
			if !bytes.Equal(common, wantCommon.Bytes()) {
				for i, c := range confCommon {
					if v := int64(binary.LittleEndian.Uint64(common[8*i:])); v != c.want {
						t.Errorf("%s = %d, want %d", c.call, v, c.want)
					}
				}
				t.Fatalf("payload = %q, want %q", common[8*len(confCommon):], confScalar+confVector)
			}
			for i, call := range confSurfaceCalls {
				if v, want := int64(binary.LittleEndian.Uint64(surface[8*i:])), confSurface[k.Name()][i]; v != want {
					t.Errorf("%s = %d, want %d on %s", call, v, want, k.Name())
				}
			}
		})
	}
}

// TestBindOnConnectedSocketIsEINVAL: bind on a connected socket answers
// -EINVAL on every kernel, as on Linux, and leaves the connection whole:
// the guest's close then reaches the host peer as EOF.
func TestBindOnConnectedSocketIsEINVAL(t *testing.T) {
	const port = 7411
	for _, k := range testKernels(t) {
		t.Run(k.Name(), func(t *testing.T) {
			lis, err := k.Host().Listen(port)
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			b := asm.NewBuilder()
			b.Zero("rec", 8)
			b.Entry("_start")
			ulib.Prologue(b)
			log := func() {
				b.StoreData("rec", isa.R0)
				ulib.WriteStr(b, 1, "rec", 8)
			}
			ulib.Socket(b)
			b.MovRR(isa.R6, isa.R0)
			ulib.Connect(b, isa.R6, port)
			log()
			ulib.Bind(b, isa.R6, port+1)
			log()
			ulib.Close(b, isa.R6)
			log()
			ulib.Exit(b, 0)
			prog, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if err := k.InstallProgram("/bin/bindconn", prog); err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if status, err := RunToCompletion(k, "/bin/bindconn", nil, &out); err != nil || status != 0 {
				t.Fatalf("status %d, %v", status, err)
			}
			want := []int64{0, -libos.EINVAL, 0}
			if out.Len() != 8*len(want) {
				t.Fatalf("transcript is %d bytes, want %d", out.Len(), 8*len(want))
			}
			for i, call := range []string{"connect", "bind on the connected socket", "close"} {
				if v := int64(binary.LittleEndian.Uint64(out.Bytes()[8*i:])); v != want[i] {
					t.Errorf("%s = %d, want %d", call, v, want[i])
				}
			}
			conn, err := lis.Accept()
			if err != nil {
				t.Fatal(err)
			}
			if n, eof, _ := conn.TryRead(make([]byte, 8), nil); n != 0 || !eof {
				t.Fatalf("host peer after the guest's close: read %d bytes, eof %v, want 0 and EOF", n, eof)
			}
		})
	}
}
