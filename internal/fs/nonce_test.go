package fs

import (
	"fmt"
	"testing"

	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

// This file holds the seal's promise: a nonce never repeats under a key,
// whatever the host makes a store forget.

// nonceLog records the nonce of every seal made under one key.
type nonceLog map[[nonceSize]byte]string

// write writes block i of s and records the nonce WriteBlock sealed it
// under, failing if an earlier seal used it.
func (l nonceLog) write(t *testing.T, s *BlockStore, i int, what string) {
	t.Helper()
	if err := s.WriteBlock(i, blockFill(i, len(l))); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	n := [nonceSize]byte(s.entry(i))
	if prev, dup := l[n]; dup {
		t.Fatalf("%s: block %d sealed under nonce %x, which %s already used", what, i, n, prev)
	}
	l[n] = fmt.Sprintf("%s (block %d)", what, i)
}

// TestSealNonceNeverRepeats records every nonce sealed under one key
// across the three ways the host can make a store forget a seal — a
// crash after a WriteBlock and before its Flush, a rollback to a
// snapshot, and CreateStore over an old image — and asserts none
// repeats. A nonce derived from (block, version) repeats in the first
// case: the reopened store is at the old version, and its next write
// reuses the version the lost write had already used.
func TestSealNonceNeverRepeats(t *testing.T) {
	key := KeyFromString("nonce")
	log := nonceLog{}
	first := func(t *testing.T, s *BlockStore, what string) {
		for i := 0; i < 4; i++ {
			log.write(t, s, i, what)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("crash", func(t *testing.T) {
		h := hostfault.New(hostos.New())
		s, err := CreateStore(h, "a", key, 16)
		if err != nil {
			t.Fatal(err)
		}
		first(t, s, "crash: first commit")
		committed := s.Epoch()
		// The rewrite's k+m cells reach the host, then the power goes:
		// Flush's writes are dropped.
		h.Inject("a.s*", hostfault.CrashAfter(s.nFiles()))
		log.write(t, s, 2, "crash: rewrite lost with its Flush")
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if !h.Heal("a.s*") {
			t.Fatal("the crash never cut the Flush")
		}
		s2, err := OpenStore(h, "a", key)
		if err != nil {
			t.Fatal(err)
		}
		if s2.Epoch() != committed {
			t.Fatalf("reopened at epoch %d, want the committed %d", s2.Epoch(), committed)
		}
		log.write(t, s2, 2, "crash: rewrite after reopen")
	})

	t.Run("rollback", func(t *testing.T) {
		h := hostos.New()
		s, err := CreateStore(h, "b", key, 16)
		if err != nil {
			t.Fatal(err)
		}
		first(t, s, "rollback: first commit")
		snap := hostfault.CopyFiles(h, "b.s*")
		log.write(t, s, 2, "rollback: write after the snapshot")
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		hostfault.PutFiles(h, snap)
		s2, err := OpenStore(h, "b", key)
		if err != nil {
			t.Fatal(err)
		}
		log.write(t, s2, 2, "rollback: rewrite after the rollback")
	})

	t.Run("recreate", func(t *testing.T) {
		h := hostos.New()
		s, err := CreateStore(h, "c", key, 16)
		if err != nil {
			t.Fatal(err)
		}
		first(t, s, "recreate: old image")
		s2, err := CreateStore(h, "c", key, 16)
		if err != nil {
			t.Fatal(err)
		}
		first(t, s2, "recreate: new image")
	})

	if want := 3*4 + 2 + 2 + 4; !t.Failed() && len(log) != want {
		t.Fatalf("%d seals recorded, want %d", len(log), want)
	}
}
