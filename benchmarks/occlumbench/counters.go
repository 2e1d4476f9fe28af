package main

import (
	"repro/internal/fs"
	"repro/internal/libos"
	"repro/internal/vm"
)

// This file is the benchmark's only reader of the program's stats
// surfaces: vm.GlobalCacheStats, (*sched.Scheduler).Snapshot via
// Occlum.Sched(), libos.NetStats, fs.Stats and BlockStore.Epoch. No
// other benchmark file names those symbols.
//
// ROADMAP item 2 (per-instance metrics registry) must keep these entry
// points, or land together with a benchmark issue that repoints this
// file: guest_insts_per_op is gated on vmInsts, and a counter that
// moves or changes meaning silently rebases every later comparison.

// counterID indexes one cumulative counter in a counters snapshot.
type counterID int

const (
	vmInsts counterID = iota // guest instructions retired (CacheStats.Threaded)
	vmBlocks
	vmHits
	vmMisses
	vmChains
	vmTraceInsts
	vmTraceExits
	vmICHits
	vmICMisses
	schedSlices
	schedParks
	schedUnparks
	schedSteals
	schedBusyNS
	schedCapacityNS
	netAcceptParks
	netRecvParks
	netSendParks
	netWritevs
	netBytesLent
	netBytesCopied
	fsScrubbedBlocks
	fsRepairedShards
	fsStoreEpoch
	numCounters
)

var counterNames = [numCounters]string{
	vmInsts:          "vm.insts",
	vmBlocks:         "vm.blocks_decoded",
	vmHits:           "vm.lookup_hits",
	vmMisses:         "vm.lookup_misses",
	vmChains:         "vm.chains",
	vmTraceInsts:     "vm.trace_insts",
	vmTraceExits:     "vm.trace_exits",
	vmICHits:         "vm.ic_hits",
	vmICMisses:       "vm.ic_misses",
	schedSlices:      "sched.slices",
	schedParks:       "sched.parks",
	schedUnparks:     "sched.unparks",
	schedSteals:      "sched.steals",
	schedBusyNS:      "sched.busy_ns",
	schedCapacityNS:  "sched.capacity_ns",
	netAcceptParks:   "net.accept_parks",
	netRecvParks:     "net.recv_parks",
	netSendParks:     "net.send_parks",
	netWritevs:       "net.writevs",
	netBytesLent:     "net.bytes_lent",
	netBytesCopied:   "net.bytes_copied",
	fsScrubbedBlocks: "fs.scrubbed_blocks",
	fsRepairedShards: "fs.repaired_shards",
	fsStoreEpoch:     "fs.store_epoch",
}

// counters is one snapshot of every cumulative counter the harness
// follows. All of them only grow, so a delta is a plain subtraction.
type counters [numCounters]uint64

// readCounters snapshots the counters of the one Occlum instance this
// process runs. The vm, net and fs surfaces are process globals; the
// harness runs one workload per process, so they are that instance's.
func readCounters(os *libos.Occlum) counters {
	var c counters
	v := vm.GlobalCacheStats()
	c[vmInsts] = v.Threaded
	c[vmBlocks] = v.Blocks
	c[vmHits] = v.Hits
	c[vmMisses] = v.Misses
	c[vmChains] = v.Chains
	c[vmTraceInsts] = v.TraceInsts
	c[vmTraceExits] = v.TraceExits
	c[vmICHits] = v.ICHits
	c[vmICMisses] = v.ICMisses

	s := os.Sched().Snapshot()
	c[schedSlices] = s.Slices
	c[schedParks] = s.Parks
	c[schedUnparks] = s.Unparks
	c[schedSteals] = s.Steals
	c[schedBusyNS] = uint64(s.BusyNS)
	c[schedCapacityNS] = uint64(s.CapacityNS)

	n := libos.NetStats()
	c[netAcceptParks] = n.AcceptParks
	c[netRecvParks] = n.RecvParks
	c[netSendParks] = n.SendParks
	c[netWritevs] = n.Writevs
	c[netBytesLent] = n.BytesLent
	c[netBytesCopied] = n.BytesCopied

	f := fs.Stats()
	c[fsScrubbedBlocks] = f.ScrubbedBlocks
	c[fsRepairedShards] = f.RepairedShards
	c[fsStoreEpoch] = os.Store().Epoch()
	return c
}

// sub returns the event delta c - o.
func (c counters) sub(o counters) counters {
	var d counters
	for i := range c {
		d[i] = c[i] - o[i]
	}
	return d
}

// named returns the non-zero counters by name (the form spans carry in
// the trace file).
func (c counters) named() map[string]uint64 {
	var m map[string]uint64
	for i, v := range c {
		if v != 0 {
			if m == nil {
				m = make(map[string]uint64)
			}
			m[counterNames[i]] = v
		}
	}
	return m
}

// per returns counter id per op as a float.
func (c counters) per(id counterID, ops int) float64 {
	return ratio(float64(c[id]), float64(ops))
}
