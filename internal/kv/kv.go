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
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/fs"
	"repro/internal/sim"
)

// Options sizes the store. The zero value of a field selects the
// DefaultOptions value, mirroring rio.Options: kv.Open(p, fsys,
// kv.Options{}) is a working db_bench-fillsync store.
type Options struct {
	MemtableBytes int // flush threshold (0 = 4 MB)
	KeySize       int // bytes per key (0 = 16)
	ValueSize     int // bytes per value (0 = 1024)
	MaxL0Files    int // L0 files before compaction triggers (0 = 8)

	// NegativeLookup makes gets consult bloom filters before touching
	// SSTs: a store-wide one (bloomBits wide) over the live keys, so gets
	// of absent keys answer at the initiator without probing any SST over
	// the fabric, and one per L0 SST over its keys and tombstones, so a
	// get reads the index block only of files that may decide its key.
	// false (the zero value) = off.
	NegativeLookup bool
}

// The engine's fixed costs: CPU charged to the store's initiator cores,
// and the negative-lookup filter's size.
const (
	indexCPU    sim.Time = 900                 // memtable insert/lookup
	sstChunkCPU sim.Time = 2 * sim.Microsecond // SST build per 16-block chunk (×2 in a compaction)
	bloomCPU    sim.Time = 200                 // filter probe/update per op
	bloomBits            = 1 << 20             // negative-lookup filter size
)

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
	if o.MaxL0Files == 0 {
		o.MaxL0Files = 8
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
	Flushes      int64 // memtable -> SST
	Compactions  int64
	SSTFiles     int64
	NegativeHits int64 // gets answered "absent" by the store-wide filter alone
	SSTReads     int64 // SST index-block reads issued by gets
	FilterSkips  int64 // SSTs in a get's key range that their filter ruled out
}

// DB is one key-value store instance. It inherits its file system's
// initiator binding: WAL fsyncs, SST flushes, compaction I/O and all
// in-memory indexing CPU run in that initiator's ordering domain, so a
// tenant's engine work never leaks onto another tenant's cores.
type DB struct {
	fsys   *fs.FS
	cfg    Options
	closed bool

	wal *fs.File

	mem      map[string]uint64 // key -> value stamp (values are synthetic; tombstone marks a delete)
	memBytes int
	imm      []*sealed // immutable memtables being flushed, oldest first

	l0     []*sstFile
	l1     []*sstFile
	nextID int

	filter *bloom // negative-lookup filter (nil = off)

	flushing  bool
	flushCond *sim.Cond
	stats     Stats
	seq       uint64
}

// sealed is an immutable memtable awaiting its flush, which drops it from
// db.imm by identity.
type sealed struct{ mem map[string]uint64 }

// tombstone is the memtable stamp marking a deleted key (live stamps
// start at 1).
const tombstone = 0

// sstFile is the in-memory index of one SST file. Like RocksDB's pinned
// index and filter blocks it lives in process memory, so it dies with the
// store: Reopen starts with none.
type sstFile struct {
	name     string
	file     *fs.File // the handle from Create; nil once compaction unlinks it
	keys     []string // live keys, sorted
	dead     []string // tombstones flushed with this file, sorted
	min, max string   // key range over keys and dead (empty file: unset)
	filter   *bloom   // over keys and dead (nil: NegativeLookup off, or an L1 file)
}

// covers reports whether key lies in f's key range, tombstones included:
// only then can f decide it.
func (f *sstFile) covers(key string) bool {
	return len(f.keys)+len(f.dead) > 0 && f.min <= key && key <= f.max
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
		db.filter = newBloom(bloomBits)
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
		db.filter = newBloom(bloomBits)
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

// ErrClosed is returned by Put and Delete on a store after its Close.
var ErrClosed = errors.New("kv: store closed")

// Close drains background memtable flushes and retires the store,
// returning the final counters. Put and Delete return ErrClosed
// afterwards.
func (db *DB) Close(p *sim.Proc) Stats {
	for db.flushing || len(db.imm) > 0 {
		db.flushCond.Wait(p)
	}
	db.closed = true
	return db.stats
}

// Put inserts key→value with fillsync durability: append to the WAL,
// fsync, then update the memtable. core selects the journal/stream of the
// calling thread. A failed fsync's error (stack.ErrServerDown: the server
// died while the put waited) is returned before the memtable sees the key.
func (db *DB) Put(p *sim.Proc, core int, key string, valueLen int) error {
	if db.closed {
		return ErrClosed
	}
	rec := db.cfg.KeySize + valueLen + 16 // header
	if err := db.fsys.Append(p, db.wal, rec); err != nil {
		return err
	}
	if err := db.fsys.Fsync(p, db.wal, core); err != nil {
		return err
	}

	// Memtable insert (in-memory indexing CPU).
	db.fsys.UseCPU(p, indexCPU)
	db.seq++
	db.mem[key] = db.seq
	db.memBytes += rec
	db.stats.Puts++
	if db.filter != nil {
		db.fsys.UseCPU(p, bloomCPU)
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
	if db.closed {
		return ErrClosed
	}
	rec := db.cfg.KeySize + db.cfg.ValueSize + 16
	if err := db.fsys.Append(p, db.wal, rec); err != nil {
		return err
	}
	if err := db.fsys.Fsync(p, db.wal, core); err != nil {
		return err
	}

	db.fsys.UseCPU(p, indexCPU)
	db.mem[key] = tombstone
	db.memBytes += rec

	if db.memBytes >= db.cfg.MemtableBytes {
		db.rotate(p, core)
	}
	return nil
}

// Get looks a key up (store-wide filter, then memtable, then SSTs
// newest-first; the first occurrence — live or tombstone — decides).
// The value itself is synthetic; the charged work is the filter and
// index CPU plus the index-block reads of the SSTs sstLookup cannot pass
// over.
func (db *DB) Get(p *sim.Proc, key string) bool {
	db.stats.Gets++
	var h keyHash
	if db.filter != nil {
		h = hashOf(key)
		db.fsys.UseCPU(p, bloomCPU)
		if !db.filter.mayContainHash(h) {
			db.stats.NegativeHits++
			return false
		}
	}
	db.fsys.UseCPU(p, indexCPU)
	if v, ok := db.mem[key]; ok {
		return v != tombstone
	}
	for i := len(db.imm) - 1; i >= 0; i-- {
		if v, ok := db.imm[i].mem[key]; ok {
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
		if found, live := db.sstLookup(p, l0[i], key, h); found {
			return live
		}
	}
	for _, f := range l1 {
		if found, live := db.sstLookup(p, f, key, h); found {
			return live
		}
	}
	return false
}

// sstLookup reports whether one SST file decides the key: found with
// live=false is a flushed tombstone shadowing older files. A file whose
// key range excludes the key is passed over for free, one whose filter
// answers "absent" for a filter probe's CPU; any other costs one
// index-block read (skipped once the file is unlinked).
func (db *DB) sstLookup(p *sim.Proc, f *sstFile, key string, h keyHash) (found, live bool) {
	if !f.covers(key) {
		return false, false
	}
	if f.filter != nil {
		db.fsys.UseCPU(p, bloomCPU)
		if !f.filter.mayContainHash(h) {
			db.stats.FilterSkips++
			return false, false
		}
	}
	if f.file != nil {
		db.stats.SSTReads++
		db.fsys.Read(p, f.file, 0, fs.BlockSize)
	}
	if has(f.dead, key) {
		return true, false
	}
	if has(f.keys, key) {
		return true, true
	}
	return false, false
}

// has reports whether the sorted keys hold key.
func has(keys []string, key string) bool {
	_, ok := slices.BinarySearch(keys, key)
	return ok
}

// rotate seals the memtable and flushes it to an L0 SST file in the
// background (a fresh WAL starts immediately, as in RocksDB).
func (db *DB) rotate(p *sim.Proc, core int) {
	sm := &sealed{mem: db.mem}
	db.mem = map[string]uint64{}
	db.memBytes = 0
	db.imm = append(db.imm, sm)
	wal, err := db.fsys.Create(p, fmt.Sprintf("db/WAL.%d", db.nextID))
	if err == nil {
		db.wal = wal
	}
	db.nextID++
	db.fsys.Eng().Go(fmt.Sprintf("kv/flush%d", db.nextID), func(fp *sim.Proc) {
		db.flushMemtable(fp, core, sm)
	})
}

// writeSST writes keys (sorted, live) and dead (sorted tombstones) as one
// SST file — sequential bulk appends charging cpu per 16-block chunk, then,
// if filtered, the file's filter at bloomCPU per key and tombstone, then
// one fsync — and returns its index, or nil when the file could not be
// created.
func (db *DB) writeSST(p *sim.Proc, core int, keys, dead []string, cpu sim.Time, filtered bool) *sstFile {
	name := fmt.Sprintf("db/sst%06d", db.nextID)
	db.nextID++
	f, err := db.fsys.Create(p, name)
	if err != nil {
		return nil
	}
	bytes := len(keys) * (db.cfg.KeySize + db.cfg.ValueSize)
	for off := 0; off < bytes; off += 16 * fs.BlockSize {
		db.fsys.UseCPU(p, cpu)
		db.fsys.Append(p, f, min(bytes-off, 16*fs.BlockSize))
	}
	sst := &sstFile{name: name, file: f, keys: keys, dead: dead}
	ends := make([]string, 0, 4)
	for _, run := range [][]string{keys, dead} {
		if len(run) > 0 {
			ends = append(ends, run[0], run[len(run)-1])
		}
	}
	if len(ends) > 0 {
		sst.min, sst.max = slices.Min(ends), slices.Max(ends)
	}
	if n := len(keys) + len(dead); filtered && n > 0 {
		db.fsys.UseCPU(p, sim.Time(n)*bloomCPU)
		sst.filter = newBloom(10 * n) // 10 bits per key
		for _, k := range keys {
			sst.filter.add(k)
		}
		for _, k := range dead {
			sst.filter.add(k)
		}
	}
	db.fsys.Fsync(p, f, core)
	return sst
}

// flushMemtable writes one immutable memtable as an SST file.
func (db *DB) flushMemtable(p *sim.Proc, core int, sm *sealed) {
	for db.flushing {
		db.flushCond.Wait(p)
	}
	db.flushing = true
	keys := make([]string, 0, len(sm.mem))
	var dead []string
	for k, v := range sm.mem {
		if v == tombstone {
			dead = append(dead, k)
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sort.Strings(dead)
	if sst := db.writeSST(p, core, keys, dead, sstChunkCPU, db.cfg.NegativeLookup); sst != nil {
		db.l0 = append(db.l0, sst)
		db.stats.SSTFiles++
		db.stats.Flushes++
	}
	db.imm = slices.DeleteFunc(db.imm, func(s *sealed) bool { return s == sm })
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
		for _, k := range f.dead {
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
	// Compaction I/O: rewrite everything once (read+write). The L1 file
	// gets no filter of its own: the store-wide one is rebuilt below from
	// its keys plus the memtables', and a key put or deleted since is
	// decided above L1, so a get that reaches L1 has already passed a
	// filter over L1's keys. A second probe would charge every hit to
	// save a read only on the store-wide filter's false positives
	// (RocksDB's optimize_filters_for_hits, for the same reason).
	if sst := db.writeSST(p, core, keys, nil, 2*sstChunkCPU, false); sst != nil {
		// Old files removed.
		for _, old := range append(db.l0, db.l1...) {
			db.fsys.Unlink(p, old.name)
			old.file = nil
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
		nb := newBloom(bloomBits)
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
		for _, sm := range db.imm {
			for k, v := range sm.mem {
				if v != tombstone {
					nb.add(k)
				}
			}
		}
		db.filter = nb
	}
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
