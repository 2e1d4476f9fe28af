package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

type sample struct {
	Hits   uint64
	Misses uint64
	BusyNS int64
}

func TestLoadSubAddText(t *testing.T) {
	live := sample{Hits: 7, Misses: 1 << 63, BusyNS: -5}
	a := Load(&live)
	if a != live {
		t.Fatalf("Load = %+v, want %+v", a, live)
	}
	b := sample{Hits: 3, Misses: 1<<63 + 2, BusyNS: 10}
	if got, want := Sub(b, a), (sample{Hits: 1<<64 - 4, Misses: 2, BusyNS: 15}); got != want {
		t.Errorf("Sub = %+v, want %+v (uint64 wraps, int64 goes negative)", got, want)
	}
	if got, want := Add(a, b), (sample{Hits: 10, Misses: 2, BusyNS: 5}); got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
	if got := Sub(Add(a, b), b); got != a {
		t.Errorf("Sub(Add(a, b), b) = %+v, want %+v", got, a)
	}

	var sb strings.Builder
	if err := WriteText(&sb, " %s=%d", a); err != nil {
		t.Fatal(err)
	}
	if got, want := sb.String(), " Hits=7 Misses=9223372036854775808 BusyNS=-5"; got != want {
		t.Errorf("WriteText = %q, want %q", got, want)
	}
	sb.Reset()
	WriteText(&sb, "%s: %d\n", sample{Hits: 1})
	if got, want := sb.String(), "Hits: 1\nMisses: 0\nBusyNS: 0\n"; got != want {
		t.Errorf("WriteText = %q, want %q", got, want)
	}
}

// TestRefusesNonCounterStructs: a field that is not an exported uint64
// or int64, or a value that is not a struct, panics in every entry.
func TestRefusesNonCounterStructs(t *testing.T) {
	type narrow struct {
		Hits  uint64
		Depth int32
	}
	type hidden struct {
		Hits  uint64
		count uint64
	}
	type wrapped struct{ Hits atomic.Uint64 }
	refused := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: no panic", name)
			} else if !strings.HasPrefix(r.(string), "metrics: ") {
				t.Errorf("%s: panic %v", name, r)
			}
		}()
		f()
	}
	refused("Load int32", func() { Load(&narrow{}) })
	refused("Sub int32", func() { Sub(narrow{}, narrow{}) })
	refused("Add unexported", func() { Add(hidden{}, hidden{}) })
	refused("Load atomic.Uint64", func() { Load(&wrapped{}) })
	refused("WriteText int32", func() { WriteText(&strings.Builder{}, "%s=%d", narrow{}) })
	refused("WriteText non-struct", func() { WriteText(&strings.Builder{}, "%s=%d", uint64(1)) })
}

// TestLoadWhileAdding runs eight adders against one loader; under -race
// a non-atomic read or write in Load is reported. Each load sees every
// counter between 0 and its final value, and the last load sees all
// adds.
func TestLoadWhileAdding(t *testing.T) {
	const adders, rounds = 8, 2000
	var live sample
	var wg sync.WaitGroup
	stop := make(chan struct{})
	loaded := make(chan int)
	go func() {
		n := 0
		defer func() { loaded <- n }()
		for {
			s := Load(&live)
			if s.Hits > adders*rounds || s.BusyNS < -adders*rounds || s.BusyNS > 0 {
				t.Errorf("load out of range: %+v", s)
			}
			n++
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for range adders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				atomic.AddUint64(&live.Hits, 1)
				atomic.AddUint64(&live.Misses, 2)
				atomic.AddInt64(&live.BusyNS, -1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-loaded; n == 0 {
		t.Error("the loader never ran")
	}
	if got, want := Load(&live), (sample{Hits: adders * rounds, Misses: 2 * adders * rounds, BusyNS: -adders * rounds}); got != want {
		t.Errorf("final Load = %+v, want %+v", got, want)
	}
}
