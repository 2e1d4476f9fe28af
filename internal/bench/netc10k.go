package bench

import (
	"fmt"
	"time"

	"repro/internal/workloads"
)

// C10KTable measures the event-driven (epoll) HTTPD under a growing
// number of simultaneously open connections on a fixed 4-hart pool —
// the C10K configuration the thread-per-connection server structurally
// cannot reach (its concurrent service is capped at the hart count,
// since every in-flight connection owns a worker SIP's attention).
//
// Every connection is opened and held before the first request flows;
// throughput and tail latency per point show whether serving 10k
// connections costs more than serving 64 (the acceptance bar is staying
// within ~10%).
func C10KTable(s Scale) (*Table, error) {
	const (
		port    = 9400
		workers = 8
		harts   = 4
		// churnStride: each connection closes and redials every 4th
		// round — 25% of the population cycles through the full accept
		// path per round.
		churnStride = 4
	)
	t := &Table{
		Title:   fmt.Sprintf("C10K — event-driven HTTPD over %d harts, %d epoll workers", harts, workers),
		Columns: []string{"req/s", "p50 ms", "p99 ms", "failed", "churns"},
		Unit:    "per conns row",
	}
	spec := workloads.KernelSpec{
		Domains:        workers + 2,
		DomainCode:     1 << 20,
		DomainData:     4 << 20,
		EIPEnclaveSize: s.EIPEnclave,
		Harts:          harts,
		// A production-shaped server keeps an idle deadline on every
		// connection. The timeout never fires here (every connection
		// stays active), but each accept arms and each close cancels a
		// deadline — the c10k numbers include that bookkeeping, and
		// -stats shows it moving.
		IdleTimeout: 60 * time.Second,
	}
	k, err := workloads.NewOcclumKernel(spec)
	if err != nil {
		return nil, err
	}
	defer k.Sys.OS.Shutdown()

	master, err := workloads.InstallEventHTTPD(k, port, workers)
	if err != nil {
		return nil, err
	}
	p, err := k.Spawn(master, nil, nil)
	if err != nil {
		return nil, err
	}
	for _, conns := range s.C10KConns {
		// At least 4 rounds per row: a single burst never reaches
		// steady state, and throughput comparisons across rows need
		// sustained serving, not ramp effects.
		rounds := max(4, s.C10KRequests/conns)
		res := workloads.RunC10K(k, port, conns, rounds)
		if res.Failed > 0 {
			return nil, fmt.Errorf("c10k conns=%d: %d/%d failed requests",
				conns, res.Failed, res.Requests)
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("conns=%d", conns),
			Values: []float64{
				res.Throughput(),
				float64(res.P50.Microseconds()) / 1000,
				float64(res.P99.Microseconds()) / 1000,
				float64(res.Failed),
				0,
			},
		})
		// Churn rows at the 10k+ points: every connection re-dials once
		// per churnStride rounds, so the steady connections' tail
		// latency is measured while the accept, epoll-register and
		// reap-arm/cancel paths stay hot. EXPERIMENTS.md "One lock per
		// table" has these rows with the fd, epoll, port and timer
		// tables sharded and unsharded.
		if conns < 10000 {
			continue
		}
		cres := workloads.RunC10KChurn(k, port, conns, rounds, churnStride)
		if cres.Failed > 0 {
			return nil, fmt.Errorf("c10k conns=%d churn: %d/%d failed requests",
				conns, cres.Failed, cres.Requests)
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("conns=%d +churn", conns),
			Values: []float64{
				cres.Throughput(),
				float64(cres.P50.Microseconds()) / 1000,
				float64(cres.P99.Microseconds()) / 1000,
				float64(cres.Failed),
				float64(cres.Churns),
			},
		})
	}
	workloads.StopHTTPD(k, port, workers)
	if status := p.Wait(); status != 0 {
		return nil, fmt.Errorf("c10k: master status %d", status)
	}
	return t, nil
}
