// Secure FS: demonstrates the complete Occlum filesystem of §6 — a
// union of the integrity-verified read-only image layer (the trusted
// app bundle, packed by occlum-image) and the writable encrypted
// filesystem:
//
//   - the LibOS boots from a packed image whose Merkle root is the only
//     trusted input (it stands in for part of the enclave measurement);
//   - a SIP reads the trusted base content and mutates it through the
//     unchanged write(2) path — copy-up moves the file into the
//     encrypted layer, where the host sees only ciphertext;
//   - the mutation survives a LibOS restart (the encrypted upper layer
//     is persistent; the image layer stays pristine);
//   - a hostile host flipping a single bit anywhere in the image blob
//     is caught by the lazy Merkle verification at read time.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
	"repro/internal/isa"
	"repro/internal/libos"
	"repro/internal/sgx"
	"repro/internal/ulib"
)

const secret = "API-TOKEN-5f4dcc3b5aa765d61d8327deb882cf99"

func bootFromImage(host *hostos.Host, tc *core.Toolchain, root [32]byte, out *bytes.Buffer) (*libos.Occlum, error) {
	cfg := libos.DefaultConfig()
	cfg.VerifierKey = tc.Key()
	cfg.BaseImage = "base.img"
	cfg.BaseImageRoot = root
	cfg.Stdout = out
	return libos.Boot(sgx.NewPlatform(512<<20), host, cfg)
}

func main() {
	// "occlum build": pack the trusted app bundle into an image blob.
	// (cmd/occlum-image does the same from a host directory.)
	ib := fs.NewImageBuilder()
	if err := ib.AddFile("/app/config", []byte("mode=paper-reproduction\n")); err != nil {
		log.Fatal(err)
	}
	if err := ib.AddFile("/app/secret-template", []byte("REPLACE-ME")); err != nil {
		log.Fatal(err)
	}
	blob, root, err := ib.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("packed base image: %d bytes, merkle root %x…\n", len(blob), root[:8])

	// The untrusted host stores the blob (and the encrypted upper layer).
	host := hostos.New()
	host.WriteFile("base.img", blob)
	tc := core.NewToolchain()

	var out bytes.Buffer
	osys, err := bootFromImage(host, tc, root, &out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("LibOS booted from the read-only image (union root mounted) ✓")

	// A SIP reads the trusted config, then writes the real secret over
	// the template — an ordinary write(2) that the union turns into a
	// copy-up into the encrypted layer.
	prog := func(b *asm.Builder) {
		b.String("conf", "/app/config")
		b.String("tmpl", "/app/secret-template")
		b.String("secret", secret)
		b.Zero("buf", 64)
		b.Entry("_start")
		ulib.Prologue(b)
		ulib.OpenPath(b, "conf", 11, libos.ORdOnly)
		b.MovRR(isa.R6, isa.R0)
		b.CmpI(isa.R6, 0)
		b.Jl("fail")
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 24)
		ulib.Syscall(b, libos.SysRead)
		b.MovRI(isa.R1, 1)
		b.LeaData(isa.R2, "buf")
		b.MovRI(isa.R3, 24)
		ulib.Syscall(b, libos.SysWrite)
		ulib.Close(b, isa.R6)
		ulib.OpenPath(b, "tmpl", 20, libos.OWrOnly|libos.OTrunc)
		b.MovRR(isa.R6, isa.R0)
		b.CmpI(isa.R6, 0)
		b.Jl("fail")
		b.MovRR(isa.R1, isa.R6)
		b.LeaData(isa.R2, "secret")
		b.MovRI(isa.R3, int64(len(secret)))
		ulib.Syscall(b, libos.SysWrite)
		b.CmpI(isa.R0, int32(len(secret)))
		b.Jne("fail")
		ulib.Close(b, isa.R6)
		b.MovRI(isa.R1, 0)
		ulib.Syscall(b, libos.SysFsync)
		ulib.Exit(b, 0)
		b.Label("fail")
		b.Nop()
		ulib.Exit(b, 1)
	}
	b := asm.NewBuilder()
	prog(b)
	p, err := b.Finish()
	if err != nil {
		log.Fatal(err)
	}
	bin, err := tc.Compile("provision", p)
	if err != nil {
		log.Fatal(err)
	}
	if err := osys.VFS().Mkdir("/bin"); err != nil {
		log.Fatal(err)
	}
	if err := osys.InstallBinary("/bin/provision", bin); err != nil {
		log.Fatal(err)
	}
	proc, err := osys.Spawn("/bin/provision", nil, libos.SpawnOpt{})
	if err != nil {
		log.Fatal(err)
	}
	if status := proc.Wait(); status != 0 {
		log.Fatalf("provision SIP exited %d", status)
	}
	st := fs.Stats()
	fmt.Printf("SIP read trusted config %q and provisioned the secret (copy-ups so far: %d) ✓\n",
		out.String(), st.CopyUps)
	backing := osys.Store().BackingFiles()
	if err := osys.Shutdown(); err != nil {
		log.Fatal(err)
	}

	// The host sees the image blob (public) and the encrypted layer —
	// striped with parity across several backing files — but never the
	// secret in plaintext, in any of them.
	encBytes := 0
	for _, name := range backing {
		enc, _ := host.ReadFile(name)
		if bytes.Contains(enc, []byte(secret)) {
			log.Fatal("PLAINTEXT LEAKED TO HOST")
		}
		encBytes += len(enc)
	}
	fmt.Printf("host-side encrypted layer: %d backing files, %d bytes, secret not present in plaintext ✓\n",
		len(backing), encBytes)

	// Restart the LibOS: the copy-up persisted in the encrypted layer,
	// the image below is untouched.
	var out2 bytes.Buffer
	osys2, err := bootFromImage(host, tc, root, &out2)
	if err != nil {
		log.Fatal(err)
	}
	n, err := osys2.VFS().Open("/app/secret-template", fs.ORdOnly)
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, len(secret))
	if _, err := n.ReadAt(buf, 0); err != nil {
		log.Fatal(err)
	}
	if string(buf) != secret {
		log.Fatalf("after restart: %q", buf)
	}
	fmt.Println("after LibOS restart: provisioned secret served from the encrypted layer ✓")
	osys2.Shutdown()

	// The hostile host deletes one entire backing file. The store's
	// Reed–Solomon parity covers the loss: the next boot reconstructs
	// every read from the surviving shards, and the idle scrubber and an
	// explicit repair rebuild the missing file in full (which of them
	// gets to a shard first is a matter of timing).
	host.RemoveFile(backing[2])
	before := fs.Stats()
	var outH bytes.Buffer
	osysH, err := bootFromImage(host, tc, root, &outH)
	if err != nil {
		log.Fatal(err)
	}
	nh, err := osysH.VFS().Open("/app/secret-template", fs.ORdOnly)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := nh.ReadAt(buf, 0); err != nil || string(buf) != secret {
		log.Fatalf("after shard-file loss: %q, %v", buf, err)
	}
	if _, err := osysH.Store().Repair(); err != nil {
		log.Fatal(err)
	}
	osysH.Shutdown()
	fmt.Printf("host deleted %s: reads reconstructed from parity, %d shards rebuilt ✓\n",
		backing[2], fs.Stats().Sub(before).RepairedShards)

	// A hostile host flips ONE bit in the image blob's data region: the
	// next read through a fresh boot fails closed at the Merkle check.
	if err := hostfault.FlipBit(host, "base.img", fs.BlockSize+100); err != nil {
		log.Fatal(err)
	}
	var out3 bytes.Buffer
	osys3, err := bootFromImage(host, tc, root, &out3)
	if err != nil {
		fmt.Printf("tampered image rejected at boot: %v ✓\n", err)
		return
	}
	defer osys3.Shutdown()
	m, err := osys3.VFS().Open("/app/config", fs.ORdOnly)
	if err == nil {
		_, err = m.ReadAt(make([]byte, 8), 0)
	}
	if err == nil {
		log.Fatal("IMAGE TAMPERING WENT UNDETECTED")
	}
	fmt.Printf("tampered image block rejected at read time: %v ✓\n", err)
}
