// Webserver: the paper's Lighttpd workload (§9.1) as a runnable example,
// upgraded to the event-driven configuration. A master SIP binds a
// nonblocking listening socket and spawns epoll-loop worker SIPs that
// inherit it; an ApacheBench-style client hammers the server over the
// host loopback, then a C10K round holds a thousand connections open at
// once — far past the hart count, which the seed's thread-per-connection
// server could never serve concurrently.
//
// Every blocking wait in the server (epoll_wait, accept, recv, send)
// parks its SIP and releases the hart; the scheduler and netstat
// counters printed at the end prove it.
package main

import (
	"fmt"
	"log"

	"repro/internal/libos"
	"repro/internal/workloads"
)

func main() {
	const (
		port     = 8080
		workers  = 4
		harts    = 4
		requests = 200
	)
	spec := workloads.DefaultSpec()
	spec.Domains = workers + 2
	spec.Harts = harts
	occ, err := workloads.NewOcclumKernel(spec)
	if err != nil {
		log.Fatal(err)
	}

	master, err := workloads.InstallEventHTTPD(occ, port, workers)
	if err != nil {
		log.Fatal(err)
	}
	p, err := occ.Spawn(master, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("event-driven httpd master (pid %d) + %d epoll workers serving 10 KB pages on :%d (%d harts)\n",
		p.PID(), workers, port, harts)

	for _, concurrency := range []int{1, 4, 16} {
		res := workloads.RunHTTPBench(occ, port, concurrency, requests)
		fmt.Printf("  c=%-4d %6.0f req/s  (%d requests, %d failed, %.1f MB served)\n",
			concurrency, res.Throughput(), res.Requests, res.Failed,
			float64(res.Bytes)/(1<<20))
	}

	// The C10K round: 1000 connections all open before the first
	// request is sent.
	c10k := workloads.RunC10K(occ, port, 1000, 1)
	fmt.Printf("  c10k   %6.0f req/s  (%d concurrent conns, %d failed, p50=%v p99=%v)\n",
		c10k.Throughput(), c10k.Conns, c10k.Failed, c10k.P50, c10k.P99)

	workloads.StopHTTPD(occ, port, workers)
	if status := p.Wait(); status != 0 {
		log.Fatalf("master exited with %d", status)
	}
	snap := occ.Sys.OS.Sched().Snapshot()
	net := libos.NetStats()
	fmt.Printf("sched: %d parks, %d preempts, %.0f%% hart utilization\n",
		snap.Parks, snap.Preempts, 100*snap.Utilization())
	fmt.Printf("net:   %d epoll_waits (%d parked), %d send-parks, %d nonblocking EAGAINs\n",
		net.EpWaits, net.EpWaitParks, net.SendParks, net.EAgains)
}
