// Package kv implements a RocksDB-like log-structured merge key-value
// store over the simulated file system: a write-ahead log whose records
// are made durable by fsync (the `fillsync` configuration of db_bench), an
// in-memory memtable, immutable SST files flushed in the background, and a
// simple leveled compaction. CPU costs of in-memory indexing and
// compaction are charged to the initiator cores, reproducing the paper's
// observation that RocksDB is both CPU and I/O intensive (§6.4): the CPU
// cycles an ordered-write stack saves become available to the engine
// itself.
package kv

import (
	"fmt"
	"sort"

	"repro/internal/fs"
	"repro/internal/sim"
)

// Options sizes the store. The zero value of a field selects the
// DefaultOptions value, mirroring rio.Options: kv.Open(p, fsys,
// kv.Options{}) is a working db_bench-fillsync store.
type Options struct {
	MemtableBytes   int      // flush threshold (0 = 4 MB)
	KeySize         int      // bytes per key (0 = 16)
	ValueSize       int      // bytes per value (0 = 1024)
	IndexCPU        sim.Time // memtable insert/lookup cost (0 = 900 ns)
	CompactCPUBlock sim.Time // compaction CPU per 4 KB (0 = 2 us)
	MaxL0Files      int      // L0 files before compaction triggers (0 = 8)

	// NegativeLookup maintains a bloom filter over the live keys so gets
	// of absent keys answer at the initiator without probing any SST
	// over the fabric. false (the zero value) = off.
	NegativeLookup bool
	BloomBits      int      // filter size in bits (0 = 1 Mi)
	BloomCPU       sim.Time // filter probe/update cost per op (0 = 200 ns)
}

// withDefaults fills zero fields with the DefaultOptions values.
func (o Options) withDefaults() Options {
	if o.MemtableBytes == 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.KeySize == 0 {
		o.KeySize = 16
	}
	if o.ValueSize == 0 {
		o.ValueSize = 1024
	}
	if o.IndexCPU == 0 {
		o.IndexCPU = 900
	}
	if o.CompactCPUBlock == 0 {
		o.CompactCPUBlock = 2 * sim.Microsecond
	}
	if o.MaxL0Files == 0 {
		o.MaxL0Files = 8
	}
	if o.BloomBits == 0 {
		o.BloomBits = 1 << 20
	}
	if o.BloomCPU == 0 {
		o.BloomCPU = 200
	}
	return o
}

// DefaultOptions mirrors db_bench fillsync: 16-byte keys, 1024-byte values.
func DefaultOptions() Options {
	return Options{}.withDefaults()
}

// Stats counts store activity.
type Stats struct {
	Puts         int64
	Gets         int64
	Deletes      int64
	WALBytes     int64
	Flushes      int64 // memtable -> SST
	Compactions  int64
	SSTFiles     int64
	NegativeHits int64 // gets answered "absent" by the bloom filter alone
}

// DB is one key-value store instance. It inherits its file system's
// initiator binding: WAL fsyncs, SST flushes, compaction I/O and all
// in-memory indexing CPU run in that initiator's ordering domain, so a
// tenant's engine work never leaks onto another tenant's cores.
type DB struct {
	fsys   *fs.FS
	cfg    Options
	closed bool

	wal      *fs.File
	walBytes int

	mem      map[string]uint64 // key -> value stamp (values are synthetic; tombstone marks a delete)
	memBytes int
	imm      []map[string]uint64 // immutable memtables being flushed

	l0     []*sstFile
	l1     []*sstFile
	nextID int

	filter *bloom // negative-lookup filter (nil = off)

	flushing  bool
	flushCond *sim.Cond
	stats     Stats
	seq       uint64
}

// tombstone is the memtable stamp marking a deleted key (live stamps
// start at 1).
const tombstone = 0

type sstFile struct {
	name string
	keys []string // live keys, sorted
	min  string
	max  string
	dead map[string]bool // tombstones flushed with this file (nil = none)
}

// Open creates a fresh DB (and its WAL) on the file system. Zero-valued
// options select the DefaultOptions sizing. The store inherits fsys's
// initiator binding.
func Open(p *sim.Proc, fsys *fs.FS, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	if err := fsys.Mkdir(p, "db"); err != nil {
		return nil, err
	}
	wal, err := fsys.Create(p, "db/WAL")
	if err != nil {
		return nil, err
	}
	db := &DB{
		fsys:      fsys,
		cfg:       opts,
		wal:       wal,
		mem:       map[string]uint64{},
		flushCond: sim.NewCond(fsys.Eng()),
	}
	if opts.NegativeLookup {
		db.filter = newBloom(opts.BloomBits)
	}
	return db, nil
}

// Reopen attaches a store handle to an existing "db" directory after a
// crash and file-system remount. The in-memory indexes (memtable, SST
// key lists) died with the process and the durable files persist only
// sizes, so a reopened store serves fresh puts normally but cannot
// enumerate pre-crash keys; WAL appends continue in a new file so every
// durable record is preserved for RecoverCount. What Reopen restores
// exactly is the negative-lookup contract: if ANY durable record
// exists, the bloom filter is saturated — every pre-crash key answers
// "maybe" — which is the only available superset of the live keys.
func Reopen(p *sim.Proc, fsys *fs.FS, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	names, err := fsys.List(p, "db")
	if err != nil {
		return nil, err
	}
	db := &DB{
		fsys:      fsys,
		cfg:       opts,
		mem:       map[string]uint64{},
		flushCond: sim.NewCond(fsys.Eng()),
		nextID:    len(names) + 1, // past every existing WAL.<n>/sst<n> name
	}
	wal, err := fsys.Create(p, fmt.Sprintf("db/WAL.r%d", db.nextID))
	if err != nil {
		return nil, err
	}
	db.wal = wal
	if opts.NegativeLookup {
		db.filter = newBloom(opts.BloomBits)
		if n, err := RecoverCount(p, fsys, opts); err == nil && n > 0 {
			db.filter.saturate()
		}
	}
	return db, nil
}

// MayContain reports whether the store might hold key: false is a
// definite absence (bloom negative). Without a filter every key may
// exist. The crash tests assert this stays a superset of the acked
// puts across recovery.
func (db *DB) MayContain(key string) bool {
	if db.filter == nil {
		return true
	}
	return db.filter.mayContain(key)
}

// Stats returns store counters.
func (db *DB) Stats() Stats { return db.stats }

// Options returns the effective (default-filled) options.
func (db *DB) Options() Options { return db.cfg }

// FS returns the file system the store lives on.
func (db *DB) FS() *fs.FS { return db.fsys }

// Close drains background memtable flushes and retires the store,
// returning the final counters. Further Puts/Gets are a bug.
func (db *DB) Close(p *sim.Proc) Stats {
	for db.flushing || len(db.imm) > 0 {
		db.flushCond.Wait(p)
	}
	db.closed = true
	return db.stats
}

// Put inserts key→value with fillsync durability: append to the WAL,
// fsync, then update the memtable. core selects the journal/stream of the
// calling thread.
func (db *DB) Put(p *sim.Proc, core int, key string, valueLen int) error {
	rec := db.cfg.KeySize + valueLen + 16 // header
	if err := db.fsys.Append(p, db.wal, rec); err != nil {
		return err
	}
	db.fsys.Fsync(p, db.wal, core)
	db.stats.WALBytes += int64(rec)

	// Memtable insert (in-memory indexing CPU).
	db.fsys.UseCPU(p, db.cfg.IndexCPU)
	db.seq++
	db.mem[key] = db.seq
	db.memBytes += rec
	db.stats.Puts++
	if db.filter != nil {
		db.fsys.UseCPU(p, db.cfg.BloomCPU)
		db.filter.add(key)
	}

	if db.memBytes >= db.cfg.MemtableBytes {
		db.rotate(p, core)
	}
	return nil
}

// Delete removes a key with fillsync durability: the tombstone record
// is WAL-appended at the same size as a put (keeping the RecoverCount
// arithmetic exact), fsynced, and recorded in the memtable. The bloom
// filter is NOT narrowed — bits cannot be cleared — so it
// over-approximates until the next compaction rebuilds it from the
// merged live key set.
func (db *DB) Delete(p *sim.Proc, core int, key string) error {
	rec := db.cfg.KeySize + db.cfg.ValueSize + 16
	if err := db.fsys.Append(p, db.wal, rec); err != nil {
		return err
	}
	db.fsys.Fsync(p, db.wal, core)
	db.stats.WALBytes += int64(rec)

	db.fsys.UseCPU(p, db.cfg.IndexCPU)
	db.mem[key] = tombstone
	db.memBytes += rec
	db.stats.Deletes++

	if db.memBytes >= db.cfg.MemtableBytes {
		db.rotate(p, core)
	}
	return nil
}

// Get looks a key up (bloom filter, then memtable, then SSTs
// newest-first; the first occurrence — live or tombstone — decides).
// The value itself is synthetic; the charged work is the filter and
// index CPU plus SST reads.
func (db *DB) Get(p *sim.Proc, key string) bool {
	db.stats.Gets++
	if db.filter != nil {
		db.fsys.UseCPU(p, db.cfg.BloomCPU)
		if !db.filter.mayContain(key) {
			db.stats.NegativeHits++
			return false
		}
	}
	db.fsys.UseCPU(p, db.cfg.IndexCPU)
	if v, ok := db.mem[key]; ok {
		return v != tombstone
	}
	for i := len(db.imm) - 1; i >= 0; i-- {
		if v, ok := db.imm[i][key]; ok {
			return v != tombstone
		}
	}
	// The SST walk yields on every file read, and a compaction that
	// finishes meanwhile swaps db.l0/db.l1. Walk the file set current now,
	// at the same instant the memtables were checked: a superseded file's
	// index stays in memory, so it still decides the key as of this
	// instant (only its read charge is skipped once it is unlinked).
	l0, l1 := db.l0, db.l1
	for i := len(l0) - 1; i >= 0; i-- {
		if found, live := db.sstLookup(p, l0[i], key); found {
			return live
		}
	}
	for _, f := range l1 {
		if key >= f.min && key <= f.max {
			if found, live := db.sstLookup(p, f, key); found {
				return live
			}
		}
	}
	return false
}

// sstLookup probes one SST file (one index-block read charge) and
// reports whether the file decides the key: found with live=false is a
// flushed tombstone shadowing older files.
func (db *DB) sstLookup(p *sim.Proc, f *sstFile, key string) (found, live bool) {
	if file, err := db.fsys.Open(p, f.name); err == nil {
		db.fsys.Read(p, file, 0, fs.BlockSize)
	}
	if f.dead[key] {
		return true, false
	}
	i := sort.SearchStrings(f.keys, key)
	if i < len(f.keys) && f.keys[i] == key {
		return true, true
	}
	return false, false
}

// rotate seals the memtable and flushes it to an L0 SST file in the
// background (a fresh WAL starts immediately, as in RocksDB).
func (db *DB) rotate(p *sim.Proc, core int) {
	sealed := db.mem
	db.mem = map[string]uint64{}
	db.memBytes = 0
	db.imm = append(db.imm, sealed)
	wal, err := db.fsys.Create(p, fmt.Sprintf("db/WAL.%d", db.nextID))
	if err == nil {
		db.wal = wal
	}
	db.nextID++
	eng := db.fsys.Eng()
	id := db.nextID
	eng.Go(fmt.Sprintf("kv/flush%d", id), func(fp *sim.Proc) {
		db.flushMemtable(fp, core, sealed)
	})
}

// flushMemtable writes one immutable memtable as an SST file.
func (db *DB) flushMemtable(p *sim.Proc, core int, sealed map[string]uint64) {
	for db.flushing {
		db.flushCond.Wait(p)
	}
	db.flushing = true
	keys := make([]string, 0, len(sealed))
	var dead map[string]bool
	for k, v := range sealed {
		if v == tombstone {
			if dead == nil {
				dead = map[string]bool{}
			}
			dead[k] = true
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	name := fmt.Sprintf("db/sst%06d", db.nextID)
	db.nextID++
	f, err := db.fsys.Create(p, name)
	if err == nil {
		bytes := len(keys) * (db.cfg.KeySize + db.cfg.ValueSize)
		// Sequential bulk write + one fsync, with per-block build CPU.
		for off := 0; off < bytes; off += 16 * fs.BlockSize {
			n := bytes - off
			if n > 16*fs.BlockSize {
				n = 16 * fs.BlockSize
			}
			db.fsys.UseCPU(p, db.cfg.CompactCPUBlock)
			db.fsys.Append(p, f, n)
		}
		db.fsys.Fsync(p, f, core)
		sst := &sstFile{name: name, keys: keys, dead: dead}
		if len(keys) > 0 {
			sst.min, sst.max = keys[0], keys[len(keys)-1]
		}
		db.l0 = append(db.l0, sst)
		db.stats.SSTFiles++
		db.stats.Flushes++
	}
	// Drop the sealed memtable from the immutable list.
	for i, m := range db.imm {
		if equalMaps(m, sealed) {
			db.imm = append(db.imm[:i], db.imm[i+1:]...)
			break
		}
	}
	// Compact under the flushing latch: compaction yields during its
	// I/O, and a concurrent flush appending to L0 in that window would
	// be wiped by the final L0 swap — losing its keys entirely.
	if len(db.l0) >= db.cfg.MaxL0Files {
		db.compact(p, core)
	}
	db.flushing = false
	db.flushCond.Broadcast()
}

// compact merges all L0 files (plus overlapping L1) into fresh L1
// files, newest-first so the most recent occurrence of a key — live or
// tombstone — decides, and drops the dead keys. It is also the
// re-exactification point of the bloom filter: the compactor holds the
// full merged live key set, so the over-approximation deletes (and
// evictions of their bits) accumulated is rebuilt away.
func (db *DB) compact(p *sim.Proc, core int) {
	db.stats.Compactions++
	merged := map[string]bool{} // key -> live (first occurrence decides)
	decide := func(f *sstFile) {
		for _, k := range f.keys {
			if _, ok := merged[k]; !ok {
				merged[k] = true
			}
		}
		for k := range f.dead {
			if _, ok := merged[k]; !ok {
				merged[k] = false
			}
		}
	}
	for i := len(db.l0) - 1; i >= 0; i-- {
		decide(db.l0[i])
	}
	for _, f := range db.l1 {
		decide(f)
	}
	keys := make([]string, 0, len(merged))
	for k, live := range merged {
		if live {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	// Compaction I/O: rewrite everything once (read+write), CPU per block.
	bytes := len(keys) * (db.cfg.KeySize + db.cfg.ValueSize)
	name := fmt.Sprintf("db/sst%06d", db.nextID)
	db.nextID++
	if f, err := db.fsys.Create(p, name); err == nil {
		for off := 0; off < bytes; off += 16 * fs.BlockSize {
			n := bytes - off
			if n > 16*fs.BlockSize {
				n = 16 * fs.BlockSize
			}
			db.fsys.UseCPU(p, db.cfg.CompactCPUBlock*2)
			db.fsys.Append(p, f, n)
		}
		db.fsys.Fsync(p, f, core)
		sst := &sstFile{name: name, keys: keys}
		if len(keys) > 0 {
			sst.min, sst.max = keys[0], keys[len(keys)-1]
		}
		// Old files removed.
		for _, old := range append(db.l0, db.l1...) {
			db.fsys.Unlink(p, old.name)
		}
		db.l0 = nil
		db.l1 = []*sstFile{sst}
	}
	// Re-exactify the negative-lookup filter from the merged live key
	// set plus whatever is still in the memtables. A saturated filter
	// stays saturated: pre-crash durable keys are unknowable, so any
	// rebuild here would under-approximate and break the superset
	// invariant. The rebuild is pure CPU-side bookkeeping (no yields),
	// so it cannot reorder simulation events.
	if db.filter != nil && !db.filter.sat {
		nb := newBloom(db.cfg.BloomBits)
		for _, f := range db.l1 {
			for _, k := range f.keys {
				nb.add(k)
			}
		}
		for _, f := range db.l0 {
			for _, k := range f.keys {
				nb.add(k)
			}
		}
		for k, v := range db.mem {
			if v != tombstone {
				nb.add(k)
			}
		}
		for _, m := range db.imm {
			for k, v := range m {
				if v != tombstone {
					nb.add(k)
				}
			}
		}
		db.filter = nb
	}
}

func equalMaps(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// RecoverCount replays the store after a crash and reports how many put
// records survive: WAL records (across all rotated WAL files) plus records
// already flushed to durable SST files. Crash tests use it to show that
// every fillsync put acknowledged before the cut is durable somewhere.
func RecoverCount(p *sim.Proc, fsys *fs.FS, opts Options) (int, error) {
	opts = opts.withDefaults()
	names, err := fsys.List(p, "db")
	if err != nil {
		return 0, err
	}
	rec := opts.KeySize + opts.ValueSize + 16
	sstRec := opts.KeySize + opts.ValueSize
	total := 0
	for _, name := range names {
		f, err := fsys.Open(p, "db/"+name)
		if err != nil {
			continue
		}
		switch {
		case len(name) >= 3 && name[:3] == "WAL":
			total += int(f.Size()) / rec
		case len(name) >= 3 && name[:3] == "sst":
			total += int(f.Size()) / sstRec
		}
	}
	return total, nil
}
