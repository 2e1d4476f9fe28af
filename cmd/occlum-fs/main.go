// Command occlum-fs is the offline maintenance tool for the striped
// encrypted filesystem: it opens the store's backing files (<image>.s0,
// <image>.s1, …) in place, as a hostos.Dir over the image's directory,
// and runs the requested operation inside the trusted FS stack. Repairs
// are written straight to those files.
//
// Modes:
//
//	info     print format, cipher, geometry, epoch and per-file health
//	         without writing
//	scrub    verify every committed block, rewriting rotted shards
//	repair   rebuild every damaged or missing shard — including an
//	         entire deleted backing file — from Reed–Solomon parity
//	fsck     full metadata check of the encrypted filesystem on top
//
// Usage:
//
//	occlum-fs [-image occlum.img] [-key seed] info|scrub|repair|fsck
//
// A store in an on-disk format older than v5 fails to open with an error
// that wraps fs.ErrOldFormat.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/fs"
	"repro/internal/hostos"
)

const usage = "usage: occlum-fs [-image occlum.img] [-key seed] info|scrub|repair|fsck"

// errUsage reports a malformed command line (exit status 2).
var errUsage = errors.New(usage)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "occlum-fs:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run executes one occlum-fs command line, printing its report to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("occlum-fs", flag.ContinueOnError)
	image := flags.String("image", "occlum.img", "store name: backing files are <image>.s0, <image>.s1, …")
	keySeed := flags.String("key", "occlum-default", "filesystem key seed (must match the LibOS configuration)")
	if err := flags.Parse(args); err != nil {
		return errUsage
	}
	if flags.NArg() != 1 {
		return errUsage
	}
	mode := flags.Arg(0)

	store, disk, err := open(*image, fs.KeyFromString(*keySeed))
	if err != nil {
		return err
	}

	switch mode {
	case "info":
		k, m := store.Geometry()
		fmt.Fprintf(stdout, "%s: format v5, AES-128-GCM, %d+%d striped store, epoch %d, %d blocks max\n",
			*image, k, m, store.Epoch(), store.MaxBlocks())
		for _, f := range store.BackingFiles() {
			size := disk.FileSize(f)
			health := "ok"
			if size == 0 {
				health = "MISSING"
			}
			fmt.Fprintf(stdout, "  %-20s %10d bytes  %s\n", f, size, health)
		}
	case "scrub":
		before := fs.Stats()
		blocks, err := store.Scrub()
		if err != nil {
			return fmt.Errorf("scrub: %w", err)
		}
		fmt.Fprintf(stdout, "%s: scrubbed %d blocks, repaired %d shards\n",
			*image, blocks, fs.Stats().Sub(before).RepairedShards)
	case "repair":
		rebuilt, err := store.Repair()
		if err != nil {
			return fmt.Errorf("repair: %w", err)
		}
		fmt.Fprintf(stdout, "%s: rebuilt %d shards\n", *image, rebuilt)
	case "fsck":
		efs, err := fs.Mount(store)
		if err != nil {
			return fmt.Errorf("mount: %w", err)
		}
		if err := efs.Fsck(); err != nil {
			return fmt.Errorf("fsck: %w", err)
		}
		fmt.Fprintf(stdout, "%s: clean\n", *image)
	default:
		return fmt.Errorf("%w (unknown mode %q)", errUsage, mode)
	}
	return nil
}

// open opens the store whose backing files are image.s*, in place.
func open(image string, key fs.Key) (*fs.BlockStore, hostos.Dir, error) {
	disk, name := hostos.Dir(filepath.Dir(image)), filepath.Base(image)
	if !fs.StoreExists(disk, name) {
		return nil, "", fmt.Errorf("no block store %s.s* found", image)
	}
	store, err := fs.OpenStore(disk, name, key)
	if err != nil {
		return nil, "", fmt.Errorf("open %s: %w", image, err)
	}
	return store, disk, nil
}
