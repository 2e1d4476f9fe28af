package fs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"testing"

	"repro/internal/hostos"
)

// FuzzStripeRecover hands the attacker the shard set of one committed
// block: each fuzz byte picks an action against one backing file —
// leave it, flip payload bits, flip payload bits AND forge the crc
// trailer so the locator lies, zero the cell consistently (payload and
// crc agree), truncate the file at the cell, or delete the file
// entirely. Whatever combination results, ReadBlock must either return
// the exact original plaintext or fail with ErrCorrupt — reconstructed
// bytes that never re-passed MAC verification must not escape, and
// nothing may panic. After a good read, one Scrub must leave every cell
// of the stripe whole under its crc.
func FuzzStripeRecover(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 1})          // m+1 rotted shards
	f.Add([]byte{2, 2})             // forged crc pair
	f.Add([]byte{5, 5, 5, 5, 5, 5}) // every file deleted
	f.Add([]byte{2, 0, 3, 0, 4, 1})
	f.Add([]byte{4, 4, 4})

	f.Fuzz(func(t *testing.T, plan []byte) {
		h := hostos.New()
		key := KeyFromString("stripe-fuzz")
		s, err := CreateStore(h, "dev", key, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{0xC3, 0x96}, BlockSize/2)
		if err := s.WriteBlock(0, want); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}

		ss := s.shardSize()
		off := s.cellOff(s.blockStripe(0, s.slot(0)))
		for f := 0; f < s.nFiles() && f < len(plan); f++ {
			name := s.fileName(f)
			cell := make([]byte, ss+8)
			if n, err := h.ReadFileAt(name, off, cell); err != nil || n < len(cell) {
				t.Fatal("fixture cell unreadable")
			}
			action := plan[f]
			switch action % 6 {
			case 0: // honest
				continue
			case 1: // rot the payload
				cell[int(action)%ss] ^= 0x41
				h.WriteFileAt(name, off, cell)
			case 2: // rot the payload and forge the locator
				cell[int(action)%ss] ^= 0x41
				binary.LittleEndian.PutUint32(cell[ss:], crc32.ChecksumIEEE(cell[:ss]))
				h.WriteFileAt(name, off, cell)
			case 3: // consistent zeroed cell (valid crc over wrong bytes)
				zero := make([]byte, ss+8)
				binary.LittleEndian.PutUint32(zero[ss:], crc32.ChecksumIEEE(zero[:ss]))
				h.WriteFileAt(name, off, zero)
			case 4: // truncate the file at the cell
				raw, err := h.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				h.RemoveFile(name)
				h.WriteFile(name, raw[:off+int(action)%ss])
			case 5: // delete the file
				h.RemoveFile(name)
			}
		}

		got, err := s.ReadBlock(0)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("wrong error class: %v", err)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatal("read returned bytes that differ from the original — unverified reconstruction escaped")
		}
		// A read repairs only what it had to look at; the scrubber reads
		// every cell. After one pass each of the stripe's k+m cells reads
		// back whole and passes its crc, and the block still reads true.
		if _, err := s.Scrub(); err != nil {
			t.Fatalf("scrub after a good read: %v", err)
		}
		if err := wantCellsWhole(h, s, s.blockStripe(0, s.slot(0))); err != nil {
			t.Fatalf("after scrub: %v", err)
		}
		if got, err := s.ReadBlock(0); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read after scrub: %v", err)
		}
	})
}

// TestScrubRepairRaceSmoke drives concurrent writers, readers, the
// scrubber and periodic flushes over one store — the -race CI smoke for
// the new store mutex. Correctness of content is asserted; the point is
// that no interleaving races or deadlocks.
func TestScrubRepairRaceSmoke(t *testing.T) {
	h := hostos.New()
	key := KeyFromString("race")
	s, err := CreateStore(h, "dev", key, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := s.WriteBlock(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() { // writer + flusher
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.WriteBlock(i%64, []byte{byte(i), byte(i >> 8)}); err != nil {
				t.Error(err)
				return
			}
			if i%32 == 0 {
				if err := s.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.ReadBlock((i * 7) % 64); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // scrubber
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.ScrubStep(8); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		_, _ = s.ReadBlock(i % 64)
	}
	close(stop)
	wg.Wait()

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Scrub(); err != nil {
		t.Fatalf("final scrub: %v", err)
	}
}
