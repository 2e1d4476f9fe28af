package bench

import (
	"fmt"
	"time"

	"repro/internal/fs"
	"repro/internal/hostos"
	"repro/internal/hostos/hostfault"
)

// Recovery measures the self-healing storage layer on its own: the cost
// of the striped write and read paths, how fast reads run degraded (one
// backing file gone, every stripe reconstructed from parity and healed
// in passing), how fast an offline Repair rebuilds a lost backing file,
// and what a scrub pass costs when the store is clean versus when host
// bit-rot has to be found and rewritten. Shards-healed counts come from
// the filesystem stat counters, so -fsstats shows the same numbers.
func Recovery(s Scale) (*Table, error) {
	blocks := s.FSBenchTotal / fs.BlockSize
	if blocks < 8 {
		blocks = 8
	}
	data := make([]byte, fs.BlockSize)
	for i := range data {
		data[i] = byte(i * 31)
	}

	h := hostos.New()
	key := fs.KeyFromString("recovery-bench")
	store, err := fs.CreateStore(h, "rec.img", key, blocks)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "recovery — erasure-coded store: degraded reads, rebuild, scrub",
		Columns: []string{"MB/s", "shards healed"},
		Unit:    "per row",
	}
	mb := float64(blocks) * fs.BlockSize / (1 << 20)
	addRow := func(label string, d time.Duration, healed uint64) {
		t.Rows = append(t.Rows, Row{Label: label, Values: []float64{mb / d.Seconds(), float64(healed)}})
	}
	readAll := func() error {
		for i := 0; i < blocks; i++ {
			if _, err := store.ReadBlock(i); err != nil {
				return fmt.Errorf("recovery: read block %d: %w", i, err)
			}
		}
		return nil
	}

	// 1: striped write (k data + m parity shards per block) + commit.
	start := time.Now()
	for i := 0; i < blocks; i++ {
		if err := store.WriteBlock(i, data); err != nil {
			return nil, err
		}
	}
	if err := store.Flush(); err != nil {
		return nil, err
	}
	addRow("Striped write", time.Since(start), 0)

	// 2: intact read — decrypt + MAC, no reconstruction.
	start = time.Now()
	if err := readAll(); err != nil {
		return nil, err
	}
	addRow("Intact read", time.Since(start), 0)

	// 3: degraded read — one backing file deleted; every stripe decodes
	// from the surviving shards and heals the hole as it goes.
	lost := store.BackingFiles()[1]
	hostfault.DropFiles(h, lost)
	before := fs.Stats()
	start = time.Now()
	if err := readAll(); err != nil {
		return nil, err
	}
	healed := fs.Stats().Sub(before).RepairedShards
	if healed == 0 {
		return nil, fmt.Errorf("recovery: degraded read healed nothing")
	}
	addRow("Degraded read + heal", time.Since(start), healed)

	// 4: offline rebuild of a lost backing file via Repair.
	hostfault.DropFiles(h, store.BackingFiles()[3])
	before = fs.Stats()
	start = time.Now()
	rebuilt, err := store.Repair()
	if err != nil {
		return nil, err
	}
	if rebuilt == 0 {
		return nil, fmt.Errorf("recovery: repair rebuilt nothing")
	}
	addRow("Rebuild lost file", time.Since(start), fs.Stats().Sub(before).RebuiltShards)

	// 5: scrub over a clean store — pure verification cost.
	before = fs.Stats()
	start = time.Now()
	if _, err := store.Scrub(); err != nil {
		return nil, err
	}
	if r := fs.Stats().Sub(before).RepairedShards; r != 0 {
		return nil, fmt.Errorf("recovery: clean scrub repaired %d shards", r)
	}
	addRow("Scrub clean", time.Since(start), 0)

	// 6: scrub over a rotted store — bit flips across two backing files
	// (within the m=2 parity budget) found and rewritten. The clean pass
	// above latched the scrubber; a write unlatches it, the way any real
	// mutation would.
	if err := store.WriteBlock(0, data); err != nil {
		return nil, err
	}
	if err := store.Flush(); err != nil {
		return nil, err
	}
	ref := store.BackingFiles()[0]
	dataStart := h.FileSize(ref) - blocks*2048
	for _, name := range store.BackingFiles()[4:6] {
		hostfault.CorruptFiles(h, name, dataStart, h.FileSize(name), blocks/2, 11)
	}
	before = fs.Stats()
	start = time.Now()
	if _, err := store.Scrub(); err != nil {
		return nil, err
	}
	healed = fs.Stats().Sub(before).RepairedShards
	if healed == 0 {
		return nil, fmt.Errorf("recovery: rot scrub healed nothing")
	}
	addRow("Scrub + heal rot", time.Since(start), healed)

	// The store must come out of all of this intact.
	if err := readAll(); err != nil {
		return nil, fmt.Errorf("recovery: store damaged by its own recovery: %w", err)
	}
	return t, nil
}
