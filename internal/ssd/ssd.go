// Package ssd simulates NVMe SSDs at the fidelity the Rio paper depends on:
// multi-channel internal parallelism (so completion order differs from
// submission order), a volatile write cache with an expensive device-wide
// FLUSH on flash profiles, power-loss protection (PLP) on Optane profiles,
// a byte-addressable persistent memory region (PMR), and power-cut
// semantics in which volatile state is lost while media and PMR survive.
//
// Content is tracked per logical block as a Rec carrying a 64-bit stamp
// (the identity of the write, used by crash-consistency checks) and an
// optional real payload (used by file-system metadata). Durable stamps live
// in a pointer-free open-addressing table (mediaTable) and payloads in a
// side map, which a write without one touches only while it holds any.
// With Config.KeepHistory the device retains the full per-LBA write history
// so recovery can roll blocks back, modelling out-of-place updates.
package ssd

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// BlockSize is the logical block size in bytes (4 KB, as in the paper's
// workloads).
const BlockSize = 4096

// Profile selects the device personality.
type Profile int

const (
	// Flash models a consumer NVMe flash SSD (Samsung PM981-like): fast
	// volatile write cache, no PLP, device-wide expensive FLUSH.
	Flash Profile = iota
	// Optane models a PLP low-latency SSD (Intel 905P/P4800X-like): writes
	// are durable on completion and FLUSH is nearly free.
	Optane
)

// Config holds the device parameters. All latencies are per the unit noted.
type Config struct {
	Name    string
	Profile Profile

	Channels      int      // parallel media units
	MediaWriteLat sim.Time // per-block media program time
	MediaReadLat  sim.Time // per-block media read time

	// Flash-only cache parameters.
	CacheInsertLat sim.Time // per-block volatile-cache landing time
	FrontWidth     int      // parallel cache-insert engines
	CacheCap       int      // max dirty blocks buffered

	FlushBase      sim.Time // fixed FLUSH cost (flash)
	FlushPerBlock  sim.Time // additional FLUSH cost per dirty block (flash)
	OptaneFlushLat sim.Time // FLUSH ack latency on PLP devices

	PMRSize     int      // bytes of persistent memory region
	PMRWriteLat sim.Time // persistence latency of one MMIO burst

	MaxTransferBlocks int // per-command limit (128 KB => 32)

	KeepHistory bool // retain per-LBA history for crash tests

	// Saturation model. With SatKnee > 0, a channel whose backlog exceeds
	// the knee inflates media time for the segment at hand: the effective
	// latency grows linearly with the excess depth (M/M/1-style service
	// degradation from contention inside the device — ECC retries, mapping
	// table pressure, write amplification) and is capped at SatFactorMax×
	// the nominal latency. 0 disables the model entirely; the stock
	// profiles leave it off, so calibrated behavior is untouched.
	SatKnee      int     // per-channel queue depth where inflation starts
	SatFactorMax float64 // latency inflation ceiling; 0 selects 8 when SatKnee > 0
}

// FlashConfig returns the default flash profile, calibrated so a saturated
// device sustains ~320K 4KB writes/s and FLUSH costs hundreds of µs.
func FlashConfig() Config {
	return Config{
		Name:              "pm981",
		Profile:           Flash,
		Channels:          8,
		MediaWriteLat:     25 * sim.Microsecond,
		MediaReadLat:      60 * sim.Microsecond,
		CacheInsertLat:    6 * sim.Microsecond, // ~330K blk/s buffered write rate
		FrontWidth:        2,
		CacheCap:          4096,
		FlushBase:         250 * sim.Microsecond,
		FlushPerBlock:     300,
		OptaneFlushLat:    0,
		PMRSize:           2 << 20,
		PMRWriteLat:       600,
		MaxTransferBlocks: 32,
	}
}

// OptaneConfig returns the default PLP profile (~580K 4KB writes/s).
func OptaneConfig() Config {
	return Config{
		Name:              "905p",
		Profile:           Optane,
		Channels:          7,
		MediaWriteLat:     12 * sim.Microsecond,
		MediaReadLat:      10 * sim.Microsecond,
		CacheInsertLat:    0,
		FrontWidth:        4,
		CacheCap:          0,
		FlushBase:         0,
		FlushPerBlock:     0,
		OptaneFlushLat:    2 * sim.Microsecond,
		PMRSize:           2 << 20,
		PMRWriteLat:       600,
		MaxTransferBlocks: 32,
	}
}

// Op is a command opcode.
type Op uint8

const (
	OpWrite Op = iota
	OpRead
	OpFlush
	// OpErase removes, from each of its blocks, the durable records whose
	// stamp the command's Owns accepts (recovery roll-back of out-of-place
	// blocks, §4.4.1). It costs media time like a write (deallocate + mapping
	// update).
	OpErase
)

// Rec is the content of one logical block.
type Rec struct {
	Stamp uint64
	Data  []byte // optional real payload (file-system metadata)
}

// Command is one NVMe command. Done is invoked in engine context exactly
// once when the command completes; it is never invoked for commands that
// were in flight across a power cut. The device holds the command from
// Submit until Done (forever, after a power cut): a submitter may reuse the
// storage from Done on, not before. A write's payloads are shared, not
// copied: the device keeps each Data slice itself as the block's content,
// so a payload must not be modified once it is submitted — the cache, the
// media and every read that returns the block hold it.
type Command struct {
	Op     Op
	LBA    uint64
	Blocks uint32
	Stamps []uint64                // per-block write identity; required for writes
	Data   [][]byte                // optional per-block payloads (may be nil)
	Owns   func(stamp uint64) bool // OpErase: which records of a block go
	Done   func(*Command)
	Ctx    any // the submitter's: where a Done shared by many commands finds its per-command state

	// Out is filled by reads: the per-block records observed. A read
	// reuses its capacity.
	Out []Rec

	// SatWait accumulates the saturation-model stall charged to this
	// command's segments (the share of service time past the knee) —
	// stage-tracing attribution; plain accounting, never read by the
	// device itself.
	SatWait sim.Time
}

// payload returns block i's payload as the device stores it: the caller's
// slice, or nil for none or an empty one.
func (cmd *Command) payload(i uint32) []byte {
	if cmd.Data == nil || len(cmd.Data[i]) == 0 {
		return nil
	}
	return cmd.Data[i]
}

// An op is one command inside the device, from Submit until its Done has
// run: a sim.Step whose CPU is the flash front end, pooled on the device.
// Its steps re-validate the power epoch after every wait. An op whose
// segments a power cut drained never runs again and is left to the GC.
type op struct {
	sim.Step[op]
	s           *SSD
	cmd         *Command
	epoch       uint64
	pending     int      // segments still on the channels (read, erase, Optane write)
	start, cost sim.Time // flash FLUSH: when it took the device, its drain cost
}

// Stats are cumulative device counters.
type Stats struct {
	Writes       int64 // completed write commands
	WrittenBlks  int64
	Reads        int64
	Flushes      int64
	FlushBusy    sim.Time // total time the device was stalled by FLUSH
	Destaged     int64    // flash blocks programmed from cache to media
	LostOnCut    int64    // dirty blocks dropped by power cuts
	AbortedCmds  int64    // commands in flight at a power cut
	StaleSegs    int64    // segments discarded by epoch checks
	MaxDirtySeen int
	SatStall     sim.Time // extra media time charged by the saturation model
}

type segment struct {
	lba   uint64
	rec   Rec // the block to program
	read  bool
	erase bool
	op    *op // nil for a flash destage
	epoch uint64
}

// SSD is one simulated device.
type SSD struct {
	eng *sim.Engine
	cfg Config

	media    mediaTable        // durable content: the current version's stamp of each block
	data     map[uint64][]byte // the current version's payload, for blocks that have one
	older    map[uint64][]Rec  // KeepHistory only: the versions under it, oldest first
	cache    map[uint64]Rec    // flash volatile dirty blocks
	dirty    int
	admitted int // flash blocks past the cache-space check, not yet landed
	pmr      []byte

	front       *sim.Resource
	chans       []*sim.Server[segment] // one per parallel media unit
	chanBusy    *sim.Resource          // busy-time accounting across channels
	destageCond *sim.Cond
	cacheCond   *sim.Cond
	flushMu     *sim.Resource
	flushing    bool
	flushCond   *sim.Cond

	free     sim.FreeList[op]
	epoch    uint64
	inflight int64 // ops of the current epoch
	dead     bool

	stats Stats
}

// New creates a device. Its media channels are sim.Servers and its
// commands pooled sim.Steps, so a device owns no process.
func New(e *sim.Engine, cfg Config) *SSD {
	if cfg.Channels <= 0 || cfg.MaxTransferBlocks <= 0 || cfg.FrontWidth <= 0 {
		panic("ssd: invalid config")
	}
	if cfg.SatKnee < 0 {
		panic("ssd: SatKnee must be >= 0")
	}
	if cfg.SatKnee > 0 && cfg.SatFactorMax <= 1 {
		cfg.SatFactorMax = 8
	}
	s := &SSD{
		eng:         e,
		cfg:         cfg,
		data:        make(map[uint64][]byte),
		cache:       make(map[uint64]Rec),
		pmr:         make([]byte, cfg.PMRSize),
		front:       sim.NewResource(e, cfg.FrontWidth),
		chanBusy:    sim.NewResource(e, cfg.Channels),
		destageCond: sim.NewCond(e),
		cacheCond:   sim.NewCond(e),
		flushMu:     sim.NewResource(e, 1),
		flushCond:   sim.NewCond(e),
	}
	if cfg.KeepHistory {
		s.older = make(map[uint64][]Rec)
	}
	start, finish := s.segStart, s.segFinish
	for i := 0; i < cfg.Channels; i++ {
		s.chans = append(s.chans, sim.NewServer(e, start, finish))
	}
	return s
}

// Config returns the device configuration.
func (s *SSD) Config() Config { return s.cfg }

// HasPLP reports whether completed writes are durable without FLUSH.
func (s *SSD) HasPLP() bool { return s.cfg.Profile == Optane }

// Stats returns a copy of the cumulative counters.
func (s *SSD) Stats() Stats { return s.stats }

func (s *SSD) chanOf(lba uint64) int { return int(lba % uint64(s.cfg.Channels)) }

// Submit accepts a command. It must be called from engine context (a
// callback or a Proc). The command is processed asynchronously.
func (s *SSD) Submit(cmd *Command) {
	if s.dead {
		return // device is powered off: command is silently lost
	}
	if cmd.Op != OpFlush && int(cmd.Blocks) > s.cfg.MaxTransferBlocks {
		panic(fmt.Sprintf("ssd: command of %d blocks exceeds max transfer %d",
			cmd.Blocks, s.cfg.MaxTransferBlocks))
	}
	if cmd.Op == OpWrite && len(cmd.Stamps) != int(cmd.Blocks) {
		panic("ssd: write must carry one stamp per block")
	}
	o := s.free.Get()
	o.s, o.cmd, o.epoch = s, cmd, s.epoch
	s.inflight++
	o.Start(s.eng, s.front, o, (*op).execute)
}

// execute is an op's first step. A flash write lands in the volatile cache
// (front end, admit, insert, land), a flash FLUSH drains it (flushMu, flush,
// drain, cost, flushed), and every other command fans out to the channels
// or is acknowledged after a fixed delay.
func (o *op) execute() bool {
	s, cmd := o.s, o.cmd
	if o.epoch != s.epoch {
		// Power was cut between Submit and this start event: stamping the
		// command's segments with the new epoch would program them.
		return o.end()
	}
	flash := s.cfg.Profile == Flash
	switch {
	case cmd.Op == OpWrite && flash:
		return o.Acquire((*op).admit)
	case cmd.Op == OpFlush && flash:
		o.To((*op).flush)
		return s.flushMu.Acquire(o)
	case cmd.Op == OpFlush:
		return o.Sleep(s.cfg.OptaneFlushLat, (*op).ack)
	}
	return o.fan()
}

// admit waits out an active FLUSH (a device-wide stall), then a cache
// without room for the write beside the writes admitted before it, landed
// or not, and then charges the insert.
func (o *op) admit() bool {
	s, blocks := o.s, int(o.cmd.Blocks)
	switch {
	case o.epoch != s.epoch:
		s.front.Release()
		return o.end()
	case s.flushing:
		return s.flushCond.Wait(o)
	case s.dirty+s.admitted+blocks > s.cfg.CacheCap:
		return s.cacheCond.Wait(o)
	}
	s.admitted += blocks
	// One command pays full landing cost for its first block; subsequent
	// blocks stream at a third of that (per-command overhead dominates the
	// DRAM landing, so large writes are cheaper per byte than scattered
	// small ones).
	insert := s.cfg.CacheInsertLat
	if blocks > 1 {
		insert += s.cfg.CacheInsertLat * sim.Time(blocks-1) / 3
	}
	return o.Sleep(insert, (*op).land)
}

// land puts the blocks in the cache and queues their destage segments;
// media programming happens in the background.
func (o *op) land() bool {
	s, cmd := o.s, o.cmd
	if o.epoch != s.epoch {
		s.front.Release()
		return o.end()
	}
	s.admitted -= int(cmd.Blocks)
	for i := uint32(0); i < cmd.Blocks; i++ {
		lba := cmd.LBA + uint64(i)
		rec := Rec{Stamp: cmd.Stamps[i], Data: cmd.payload(i)}
		s.cache[lba] = rec
		s.dirty++
		s.chans[s.chanOf(lba)].Push(segment{lba: lba, rec: rec, epoch: s.epoch})
	}
	if s.dirty > s.stats.MaxDirtySeen {
		s.stats.MaxDirtySeen = s.dirty
	}
	s.front.Release()
	return o.complete()
}

// fan routes the blocks of a read, an erase or an Optane write to their
// channels without yielding. The write completes when every block is
// durable (PLP); the erase pays media time like a write and removes each
// record via Discard; the read takes cached blocks at once, and one the
// cache serves whole pays only the controller's latency.
func (o *op) fan() bool {
	s, cmd := o.s, o.cmd
	read := cmd.Op == OpRead
	if read {
		cmd.Out = slices.Grow(cmd.Out[:0], int(cmd.Blocks))[:cmd.Blocks]
		clear(cmd.Out)
	}
	o.pending = 0
	for i := uint32(0); i < cmd.Blocks; i++ {
		seg := segment{lba: cmd.LBA + uint64(i), read: read, erase: cmd.Op == OpErase, op: o, epoch: s.epoch}
		if read {
			if rec, ok := s.cache[seg.lba]; ok {
				cmd.Out[i] = rec
				continue
			}
		} else if cmd.Op == OpWrite {
			seg.rec = Rec{Stamp: cmd.Stamps[i], Data: cmd.payload(i)}
		}
		o.pending++
		s.chans[s.chanOf(seg.lba)].Push(seg)
	}
	if o.pending > 0 || !read {
		return false
	}
	return o.Sleep(2*sim.Microsecond, (*op).ack)
}

// ack is a completion that needs no media: a cached read's or a FLUSH's.
func (o *op) ack() bool {
	if o.epoch != o.s.epoch {
		return o.end()
	}
	return o.complete()
}

// flush, holding flushMu, stalls the device and prices the drain by the
// dirty blocks it finds.
func (o *op) flush() bool {
	s := o.s
	if o.epoch != s.epoch {
		s.flushMu.Release()
		return o.end()
	}
	o.start = s.eng.Now()
	s.flushing = true
	o.cost = s.cfg.FlushBase + s.cfg.FlushPerBlock*sim.Time(s.dirty)
	return o.To((*op).drain)
}

// drain waits until every dirty block is destaged, then charges the cost.
func (o *op) drain() bool {
	s := o.s
	switch {
	case o.epoch != s.epoch:
		s.flushing = false
		s.flushMu.Release()
		return o.end()
	case s.dirty > 0:
		return s.destageCond.Wait(o)
	}
	return o.Sleep(o.cost, (*op).flushed)
}

// flushed lifts the stall. A power cut during the cost still ends the
// stall it began.
func (o *op) flushed() bool {
	s := o.s
	s.flushing = false
	s.flushCond.Broadcast()
	s.stats.FlushBusy += s.eng.Now() - o.start
	s.flushMu.Release()
	return o.ack()
}

// segStart and segFinish are one parallel media unit, the two halves of a
// sim.Server item: segStart takes a segment onto its channel and reports
// the media time, segFinish runs when the media is done with it.
func (s *SSD) segStart(seg segment) (sim.Time, bool) {
	if seg.epoch != s.epoch {
		s.stats.StaleSegs++
		return 0, false
	}
	// Never fails: a channel holds at most one of the Channels units.
	s.chanBusy.TryAcquire()
	lat := s.cfg.MediaWriteLat
	if seg.read {
		lat = s.cfg.MediaReadLat
	}
	// Queue-depth-dependent service degradation: deterministic (no RNG
	// draw — the saturation model must not perturb seeded runs that
	// leave it off, and the backlog is itself reproducible).
	if s.cfg.SatKnee > 0 {
		if depth := s.chans[s.chanOf(seg.lba)].Len(); depth > s.cfg.SatKnee {
			f := 1 + float64(depth-s.cfg.SatKnee)/float64(s.cfg.SatKnee)
			if f > s.cfg.SatFactorMax {
				f = s.cfg.SatFactorMax
			}
			stall := sim.Time(float64(lat) * (f - 1))
			s.stats.SatStall += stall
			if seg.op != nil {
				seg.op.cmd.SatWait += stall
			}
			lat += stall
		}
	}
	return lat, true
}

func (s *SSD) segFinish(seg segment) {
	s.chanBusy.Release()
	if seg.epoch != s.epoch {
		s.stats.StaleSegs++
		return // power was cut mid-program: block not durable
	}
	switch {
	case seg.read:
		seg.op.cmd.Out[seg.lba-seg.op.cmd.LBA], _ = s.Durable(seg.lba)
	case seg.erase:
		s.Discard(seg.lba, seg.op.cmd.Owns)
	default:
		s.program(seg.lba, seg.rec)
	}
	if o := seg.op; o != nil {
		// Read, erase, Optane direct write: done with its last block.
		if o.pending--; o.pending == 0 {
			o.complete()
		}
		return
	}
	// Flash destage: only clears the dirty entry if the cache still holds
	// the same version (a newer overwrite re-queues its own destage
	// segment).
	if cur, ok := s.cache[seg.lba]; ok && cur.Stamp == seg.rec.Stamp {
		delete(s.cache, seg.lba)
	}
	s.dirty--
	s.stats.Destaged++
	s.destageCond.Broadcast()
	s.cacheCond.Broadcast()
}

// complete counts a finished command and goes on to its Done, one event
// later.
func (o *op) complete() bool {
	s, cmd := o.s, o.cmd
	switch cmd.Op {
	case OpWrite:
		s.stats.Writes++
		s.stats.WrittenBlks += int64(cmd.Blocks)
	case OpRead:
		s.stats.Reads++
	case OpFlush:
		s.stats.Flushes++
	}
	if cmd.Done == nil {
		return o.end()
	}
	o.To((*op).done)
	s.eng.Schedule(0, o)
	return false
}

// done calls the command's Done, unless power was cut since Submit. The
// record is back in the pool first: Done may Submit again.
func (o *op) done() bool {
	cmd, live := o.cmd, o.epoch == o.s.epoch
	o.end()
	if live {
		cmd.Done(cmd)
	}
	return false
}

// end takes o out of the device and back to its pool.
func (o *op) end() bool {
	s := o.s
	if o.epoch == s.epoch {
		s.inflight--
	}
	o.cmd = nil
	s.free.Put(o)
	return false
}

// Visible returns the device-visible content of lba (cache over media).
func (s *SSD) Visible(lba uint64) (Rec, bool) {
	if rec, ok := s.cache[lba]; ok {
		return rec, true
	}
	return s.Durable(lba)
}

// Durable returns the media (persistent) content of lba.
func (s *SSD) Durable(lba uint64) (Rec, bool) {
	stamp, ok := s.media.get(lba)
	if !ok {
		return Rec{}, false
	}
	rec := Rec{Stamp: stamp}
	if len(s.data) > 0 {
		rec.Data = s.data[lba]
	}
	return rec, true
}

// program makes rec the durable content of lba, keeping the version it
// replaces under KeepHistory.
func (s *SSD) program(lba uint64, rec Rec) {
	if s.older != nil {
		if cur, ok := s.Durable(lba); ok {
			s.older[lba] = append(s.older[lba], cur)
		}
	}
	s.setDurable(lba, rec)
}

// setDurable makes rec the current media version of lba. The payload map is
// written only for a payload, and read only when it holds any.
func (s *SSD) setDurable(lba uint64, rec Rec) {
	s.media.put(lba, rec.Stamp)
	if rec.Data != nil {
		s.data[lba] = rec.Data
	} else if len(s.data) > 0 {
		delete(s.data, lba)
	}
}

// History returns the durable write history of lba, oldest first (more than
// the current version only in KeepHistory mode). The slice is the caller's.
func (s *SSD) History(lba uint64) []Rec {
	cur, ok := s.Durable(lba)
	if !ok {
		return nil
	}
	return append(slices.Clip(s.older[lba]), cur)
}

// DurableLBAs returns the sorted list of LBAs holding durable content —
// replication uses it to compare replica media for divergence.
func (s *SSD) DurableLBAs() []uint64 {
	out := s.media.appendLBAs(make([]uint64, 0, s.media.len()))
	slices.Sort(out)
	return out
}

// Discard rolls lba back past every durable record whose stamp owns accepts
// — the current version and, in KeepHistory mode, the retained ones under it
// — modelling recovery erasing out-of-place blocks. It reports whether a
// record was removed.
func (s *SSD) Discard(lba uint64, owns func(stamp uint64) bool) bool {
	cur, ok := s.Durable(lba)
	if !ok {
		return false
	}
	h := append(s.older[lba], cur) // every version, oldest first, filtered in place
	kept := slices.DeleteFunc(h, func(r Rec) bool { return owns(r.Stamp) })
	switch n := len(kept); {
	case n == len(h):
		return false
	case n == 0:
		s.media.delete(lba)
		delete(s.data, lba)
		delete(s.older, lba)
	default: // KeepHistory only: the newest version left is current
		s.setDurable(lba, kept[n-1])
		s.older[lba] = kept[:n-1]
	}
	return true
}

// PMRBytes exposes the persistent memory region. Callers model MMIO cost
// themselves (see Config.PMRWriteLat); the contents survive PowerCut.
func (s *SSD) PMRBytes() []byte { return s.pmr }

// PMRWriteLat returns the persistence latency of one MMIO burst.
func (s *SSD) PMRWriteLat() sim.Time { return s.cfg.PMRWriteLat }

// ChannelBusy returns the busy-time integral of the media channels.
func (s *SSD) ChannelBusy() sim.Time { return s.chanBusy.BusyTime() }

// PowerCut models an instant power failure: the volatile cache and every
// in-flight command are lost; media and PMR survive. The device ignores
// submissions until Restart.
func (s *SSD) PowerCut() {
	s.epoch++
	s.dead = true
	s.stats.LostOnCut += int64(len(s.cache))
	s.cache = make(map[uint64]Rec)
	s.dirty, s.admitted = 0, 0
	s.flushing = false
	s.stats.AbortedCmds += s.inflight
	s.inflight = 0
	for _, ch := range s.chans {
		ch.Drain()
	}
	// Wake anything stalled on cache space or flush so epoch checks run.
	s.cacheCond.Broadcast()
	s.flushCond.Broadcast()
	s.destageCond.Broadcast()
}

// Restart powers the device back on with media and PMR intact.
func (s *SSD) Restart() { s.dead = false }
