package mem

import "testing"

// BenchmarkLoadStore times one 8-byte load plus one 8-byte store (and
// the byte pair) over a dirty RW page, through the sized entries and
// through the general ones, on a Paged that has one RWX page mapped —
// as every enclave does (domain code is RWX from boot), so nothing
// about the store path may lean on "no writable+executable page exists".
func BenchmarkLoadStore(b *testing.B) {
	const base, pairs = 0x100000, 512
	m := NewPaged(base, 16*PageSize)
	if err := m.Map(base, 15*PageSize, PermRW); err != nil {
		b.Fatal(err)
	}
	if err := m.Map(base+15*PageSize, PageSize, PermRWX); err != nil {
		b.Fatal(err)
	}
	var sink uint64
	run := func(name string, pair func(a uint64)) {
		b.Run(name, func(b *testing.B) {
			pair(base) // the page's first store marks it, outside the timer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pair(base + 8*uint64(i%pairs))
			}
		})
	}
	run("sized8", func(a uint64) {
		v, ok := m.Load8(a)
		if !ok || !m.Store8(a, v+1) {
			if f := m.Store(a, 8, v+1); f != nil {
				b.Fatal(f)
			}
		}
		sink += v
	})
	run("general8", func(a uint64) {
		v, f := m.Load(a, 8)
		if f == nil {
			f = m.Store(a, 8, v+1)
		}
		if f != nil {
			b.Fatal(f)
		}
		sink += v
	})
	run("sized1", func(a uint64) {
		v, ok := m.Load1(a)
		if !ok || !m.Store1(a, v+1) {
			if f := m.Store(a, 1, v+1); f != nil {
				b.Fatal(f)
			}
		}
		sink += v
	})
	run("general1", func(a uint64) {
		v, f := m.Load(a, 1)
		if f == nil {
			f = m.Store(a, 1, v+1)
		}
		if f != nil {
			b.Fatal(f)
		}
		sink += v
	})
	_ = sink
}
