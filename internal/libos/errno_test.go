package libos_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/ulib"
)

// TestLongNameIsENAMETOOLONG: a path component over the store's 58-byte
// limit answers -ENAMETOOLONG from every call that takes a path, as on
// Linux, and not the -EIO of an error no row of the errno table names.
// The guest logs each call's result as an 8-byte record on stdout.
func TestLongNameIsENAMETOOLONG(t *testing.T) {
	long := "/" + strings.Repeat("n", 59)
	calls := []string{"open(O_CREAT)", "open", "mkdir", "stat", "rename to it", "rename from it"}
	var out bytes.Buffer
	sys, tc := bootSmall(t, 2, 1, 0, &out)
	defer sys.OS.Shutdown()
	prog := buildProg(t, func(b *asm.Builder) {
		b.String("long", long)
		b.String("short", "/short")
		b.Zero("stat", 16)
		b.Zero("rec", 8)
		b.Entry("_start")
		ulib.Prologue(b)
		log := func() {
			b.StoreData("rec", isa.R0)
			ulib.WriteStr(b, 1, "rec", 8)
		}
		n := int64(len(long))
		ulib.OpenPath(b, "long", n, libos.ORdWr|libos.OCreate)
		log()
		ulib.OpenPath(b, "long", n, libos.ORdOnly)
		log()
		b.LeaData(isa.R1, "long")
		b.MovRI(isa.R2, n)
		ulib.Syscall(b, libos.SysMkdir)
		log()
		ulib.StatPath(b, "long", n, "stat")
		log()
		ulib.OpenPath(b, "short", 6, libos.ORdWr|libos.OCreate)
		ulib.RenamePath(b, "short", 6, "long", n)
		log()
		ulib.RenamePath(b, "long", n, "short", 6)
		log()
		ulib.Exit(b, 0)
	})
	if err := sys.Install(tc, "/bin/long", "long", prog); err != nil {
		t.Fatal(err)
	}
	p, err := sys.OS.Spawn("/bin/long", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Wait(); st != 0 {
		t.Fatalf("status %d", st)
	}
	got := out.Bytes()
	if len(got) != 8*len(calls) {
		t.Fatalf("%d bytes of results, want %d", len(got), 8*len(calls))
	}
	for i, call := range calls {
		if r := int64(binary.LittleEndian.Uint64(got[8*i:])); r != -libos.ENAMETOOLONG {
			t.Errorf("%s of a 59-byte name = %d, want %d", call, r, -libos.ENAMETOOLONG)
		}
	}
}

// TestTooBigIsENOMEM: a binary no domain can hold answers -ENOMEM, as an
// image too big to map does on Linux, and not -EAGAIN: every domain in
// use is worth a retry, a binary over the domain size never is.
func TestTooBigIsENOMEM(t *testing.T) {
	sys, tc := bootSmall(t, 2, 1, 0, nil)
	defer sys.OS.Shutdown()
	huge := buildProg(t, func(b *asm.Builder) {
		b.Bytes("pad", make([]byte, 2<<20)) // the domain's data region is 1 MiB
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.Exit(b, 0)
	})
	spawner := buildProg(t, func(b *asm.Builder) {
		b.String("path", "/bin/huge")
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.SpawnPath(b, "path", 9, "", 0)
		b.MovRI(isa.R6, 0)
		b.Sub(isa.R6, isa.R0)
		ulib.ExitR(b, isa.R6)
	})
	for path, prog := range map[string]*asm.Program{"/bin/huge": huge, "/bin/spawner": spawner} {
		if err := sys.Install(tc, path, path[5:], prog); err != nil {
			t.Fatal(err)
		}
	}
	p, err := sys.OS.Spawn("/bin/spawner", nil, libos.SpawnOpt{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Wait(); st != libos.ENOMEM {
		t.Errorf("guest spawn of a binary over the domain size = -%d, want -%d", st, libos.ENOMEM)
	}
}
