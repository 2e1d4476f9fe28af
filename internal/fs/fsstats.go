package fs

import "sync/atomic"

// fsStats holds the package-global filesystem counters reported by
// occlum-bench -fsstats. They are cumulative across every mounted
// filesystem in the process (like the scheduler and net counters), so
// benchmarks snapshot before/after and subtract.
var fsStats struct {
	verifiedBlocks      atomic.Uint64
	verifyHits          atomic.Uint64
	readAheads          atomic.Uint64
	copyUps             atomic.Uint64
	whiteouts           atomic.Uint64
	scrubbedBlocks      atomic.Uint64
	repairedShards      atomic.Uint64
	rebuiltShards       atomic.Uint64
	decodedStripes      atomic.Uint64
	tableStripesWritten atomic.Uint64
}

// StatCounters is a snapshot of the filesystem counters.
type StatCounters struct {
	// VerifiedBlocks counts image blocks Merkle-verified on first read.
	VerifiedBlocks uint64
	// VerifyHits counts image reads served from already-verified cache
	// pages (no hashing).
	VerifyHits uint64
	// ReadAheads counts image blocks fetched speculatively by the
	// sequential read-ahead.
	ReadAheads uint64
	// CopyUps counts files copied from the image layer to the writable
	// layer on first write.
	CopyUps uint64
	// Whiteouts counts whiteout markers created by union unlinks.
	Whiteouts uint64
	// ScrubbedBlocks counts blocks MAC-verified by the background
	// scrubber (ScrubStep/Scrub).
	ScrubbedBlocks uint64
	// RepairedShards counts erasure-coded shards rewritten from parity
	// after failing their crc or going missing (repair-on-read + scrub).
	RepairedShards uint64
	// RebuiltShards counts shards recreated by offline Repair (the
	// lost-backing-file recovery path); a subset of RepairedShards.
	RebuiltShards uint64
	// DecodedStripes counts stripes the clean-stripe fast path could not
	// serve — a data shard missing or crc-bad, or a concatenation that
	// failed its MAC — and that went to Reed–Solomon reconstruction. An
	// intact device reads with this at zero.
	DecodedStripes uint64
	// TableStripesWritten counts version-table stripes a Flush wrote
	// into an A/B table slot. A commit that changed few entries writes
	// few; the first commit into a slot whose content is unknown (after
	// create or open) writes the whole table.
	TableStripesWritten uint64
}

// Stats returns the current global filesystem counters.
func Stats() StatCounters {
	return StatCounters{
		VerifiedBlocks:      fsStats.verifiedBlocks.Load(),
		VerifyHits:          fsStats.verifyHits.Load(),
		ReadAheads:          fsStats.readAheads.Load(),
		CopyUps:             fsStats.copyUps.Load(),
		Whiteouts:           fsStats.whiteouts.Load(),
		ScrubbedBlocks:      fsStats.scrubbedBlocks.Load(),
		RepairedShards:      fsStats.repairedShards.Load(),
		RebuiltShards:       fsStats.rebuiltShards.Load(),
		DecodedStripes:      fsStats.decodedStripes.Load(),
		TableStripesWritten: fsStats.tableStripesWritten.Load(),
	}
}

// Sub returns the counter deltas since an earlier snapshot.
func (s StatCounters) Sub(prev StatCounters) StatCounters {
	return StatCounters{
		VerifiedBlocks:      s.VerifiedBlocks - prev.VerifiedBlocks,
		VerifyHits:          s.VerifyHits - prev.VerifyHits,
		ReadAheads:          s.ReadAheads - prev.ReadAheads,
		CopyUps:             s.CopyUps - prev.CopyUps,
		Whiteouts:           s.Whiteouts - prev.Whiteouts,
		ScrubbedBlocks:      s.ScrubbedBlocks - prev.ScrubbedBlocks,
		RepairedShards:      s.RepairedShards - prev.RepairedShards,
		RebuiltShards:       s.RebuiltShards - prev.RebuiltShards,
		DecodedStripes:      s.DecodedStripes - prev.DecodedStripes,
		TableStripesWritten: s.TableStripesWritten - prev.TableStripesWritten,
	}
}
