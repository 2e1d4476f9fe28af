package libos_test

import (
	"bytes"
	"testing"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/libos"
	"repro/internal/sgx"
)

// TestConfigurableStripeGeometry: the k+m Reed-Solomon stripe geometry
// is a property of the store, set when it is formatted and read back
// from its shard headers on open. A store formatted 8+3 on the host
// boots as 8+3 under the default config, keeps one backing file per
// shard, and its data survives a reboot; an impossible geometry is
// refused before anything is formatted.
func TestConfigurableStripeGeometry(t *testing.T) {
	host := hostos.New()
	lc := libos.DefaultConfig()
	lc.FSBlocks = 1024
	store, err := fs.CreateStoreGeom(host, lc.FSImage, lc.FSKey, lc.FSBlocks, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkfs(store); err != nil {
		t.Fatal(err)
	}
	boot := func() *libos.Occlum {
		o, err := libos.Boot(sgx.NewPlatform(512<<20), host, lc)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	os1 := boot()
	if k, m := os1.Store().Geometry(); k != 8 || m != 3 {
		t.Fatalf("booted store geometry = %d+%d, want 8+3", k, m)
	}
	if files := os1.Store().BackingFiles(); len(files) != 11 {
		t.Fatalf("backing files = %d, want 11 (one per shard)", len(files))
	}
	payload := bytes.Repeat([]byte{0x5A, 0xC3}, 8<<10)
	f, err := os1.VFS().Open("/geom", fs.OWrOnly|fs.OCreate|fs.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := os1.Sync(); err != nil {
		t.Fatal(err)
	}
	os1.Shutdown()

	// Same host files, default config again: the geometry in the shard
	// headers wins, and the striped data reads back intact.
	os2 := boot()
	defer os2.Shutdown()
	if k, m := os2.Store().Geometry(); k != 8 || m != 3 {
		t.Fatalf("rebooted store geometry = %d+%d, want the formatted 8+3", k, m)
	}
	f2, err := os2.VFS().Open("/geom", fs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch after a reboot with the default config")
	}

	// 5 does not divide the 4 KiB block: the store refuses to format.
	if _, err := fs.CreateStoreGeom(hostos.New(), lc.FSImage, lc.FSKey, lc.FSBlocks, 5, 1); err == nil {
		t.Fatal("CreateStoreGeom with k=5 (does not divide BlockSize) succeeded, want error")
	}
}
