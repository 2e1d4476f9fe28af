package libos

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestEpollCloseRacesAdd: close sets closed and takes the interest list
// in one critical section of epollSet.mu, and add checks closed and
// inserts in another, so every add either lands before close, which
// then cancels its subscription once, or fails with EBADF and is never
// cancelled by the set. Four goroutines add eight entries each while a
// fifth closes the set, over many rounds. With the lock dropped from
// either side, -race reports the map and flag accesses, and without
// -race an add slips in after close took the items and is never
// cancelled (or the runtime reports concurrent map writes).
func TestEpollCloseRacesAdd(t *testing.T) {
	const rounds, adders, perAdder = 3000, 4, 8
	leaked, wrong := 0, 0
	for r := 0; r < rounds; r++ {
		ep := newEpollSet()
		var cancels [adders * perAdder]atomic.Int32
		var rets [adders * perAdder]int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for a := 0; a < adders; a++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < perAdder; i++ {
					fd := a*perAdder + i
					rets[fd] = ep.add(fd, &epItem{cancel: func() { cancels[fd].Add(1) }})
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ep.close()
		}()
		close(start)
		wg.Wait()
		for fd, ret := range rets {
			switch n := cancels[fd].Load(); {
			case ret == 0 && n == 0:
				leaked++
			case ret == 0 && n == 1, ret == EBADF && n == 0:
			default:
				wrong++
				t.Errorf("round %d fd %d: add returned %d, cancelled %d times", r, fd, ret, n)
			}
		}
		if wrong > 0 {
			t.FailNow()
		}
	}
	if leaked > 0 {
		t.Fatalf("%d entries added to a closed set were never cancelled", leaked)
	}
}
