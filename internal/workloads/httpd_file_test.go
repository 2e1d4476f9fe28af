package workloads

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/libos"
)

// TestFileHTTPDSendfile: the static-file server ships the body with
// sendfile straight from the integrity-verified image layer. Every
// request must deliver the exact file bytes, and the net counters must
// show the body riding borrowed page-cache blocks (lent, not copied).
func TestFileHTTPDSendfile(t *testing.T) {
	const (
		port     = 8105
		workers  = 2
		requests = 8
		fileSize = 20000
	)
	body := make([]byte, fileSize)
	for i := range body {
		body[i] = byte(i*7 + (i >> 8))
	}
	ib := fs.NewImageBuilder()
	if err := ib.AddDir("/www"); err != nil {
		t.Fatal(err)
	}
	if err := ib.AddFile("/www/index.html", body); err != nil {
		t.Fatal(err)
	}
	blob, root, err := ib.Build()
	if err != nil {
		t.Fatal(err)
	}

	spec := DefaultSpec()
	spec.BaseImageBlob = blob
	spec.BaseImageRoot = root
	k, err := NewOcclumKernel(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Sys.OS.Shutdown()

	master, err := InstallFileHTTPD(k, port, workers, "/www/index.html", fileSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn(master, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	hdr := fmt.Sprintf("HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n", fileSize)
	want := append([]byte(hdr), body...)
	net0 := libos.NetStats()
	for r := 0; r < requests; r++ {
		conn, err := dialRetry(k, port, 200)
		if err != nil {
			t.Fatalf("request %d: dial: %v", r, err)
		}
		if _, err := conn.Write([]byte("GET / HTTP/1.0\r\n\r\n")); err != nil {
			t.Fatalf("request %d: write: %v", r, err)
		}
		got := make([]byte, 0, len(want))
		buf := make([]byte, 4096)
		for len(got) < len(want) {
			n, err := conn.Read(buf)
			if n > 0 {
				got = append(got, buf[:n]...)
			}
			if err != nil {
				break
			}
		}
		conn.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: got %d bytes, want %d (equal=%v)",
				r, len(got), len(want), bytes.Equal(got, want))
		}
	}
	StopHTTPD(k, port, workers)
	if status := p.Wait(); status != 0 {
		t.Fatalf("master status = %d", status)
	}
	// Read the counters only once every worker has exited: a worker
	// counts its sendfile after the last byte is queued, so the client
	// can hold the whole response before the count lands.
	d := libos.NetStats().Sub(net0)
	if d.Sendfiles < requests {
		t.Fatalf("sendfiles = %d, want >= %d", d.Sendfiles, requests)
	}
	if d.Writevs < requests {
		t.Fatalf("writevs = %d, want >= %d", d.Writevs, requests)
	}
	if d.BytesLent < uint64(requests*fileSize) {
		t.Fatalf("bytes lent = %d, want >= %d (bodies must ride borrowed blocks)",
			d.BytesLent, requests*fileSize)
	}
	t.Logf("file httpd: %d requests, lent=%d copied=%d", requests, d.BytesLent, d.BytesCopied)
}
