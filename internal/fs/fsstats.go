package fs

import "repro/internal/metrics"

// fsStats is the live value of the package-global filesystem counters,
// written only through sync/atomic. They are cumulative across every
// mounted filesystem in the process (like the scheduler and net
// counters), so readers snapshot before and after and subtract.
var fsStats StatCounters

// StatCounters is the filesystem counters, declared once: fsStats is a
// live value of it and Stats returns a copy.
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
	// layer by a writable or truncating open, or a rename.
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
	// DecodedStripes counts stripes whose data shards' concatenation
	// could not be served — a data shard missing, short or crc-bad, or a
	// concatenation that failed its tag — and that went to Reed–Solomon
	// reconstruction. An intact device reads with this at zero, and so
	// does a read over rotted parity: a clean read never looks at it.
	DecodedStripes uint64
	// TableStripesWritten counts version-table stripes a Flush wrote
	// into an A/B table slot. A commit that changed few entries writes
	// few; the first commit into a slot whose content is unknown (after
	// create or open) writes the whole table.
	TableStripesWritten uint64
	// TableStripesMACed counts table stripes whose MAC (Mⱼ, under the
	// commit root) was computed: every stripe of each table an open
	// reads, and at a Flush only the stripes whose entries changed since
	// the previous Flush (all of them at create) — never more than it
	// wrote.
	TableStripesMACed uint64
	// CRCMismatches counts shard cells read whole whose crc32 trailer
	// did not match their payload (CHECKSUM_MISMATCH): rot, a torn write,
	// or a tamperer who did not fix the trailer up. Missing files and
	// short reads are not counted. Trailers are checked only where every
	// cell is read: by the scrubber, Repair and the table load, and by a
	// block read whose clean read missed. A clean read checks none.
	CRCMismatches uint64
	// TagFailures counts block payloads that failed to open under their
	// GCM tag (DATA_CORRUPTED): a clean read's data shards over a rotted
	// or forged one, a crc-clean payload whose bytes are not the block's,
	// and every k-subset the recovery search tried and rejected. An
	// intact device reads with this at zero.
	TagFailures uint64
}

// Stats returns the current global filesystem counters.
func Stats() StatCounters { return metrics.Load(&fsStats) }

// Sub returns the counter deltas since an earlier snapshot.
func (s StatCounters) Sub(prev StatCounters) StatCounters { return metrics.Sub(s, prev) }
