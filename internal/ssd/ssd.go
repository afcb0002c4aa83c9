// Package ssd simulates NVMe SSDs at the fidelity the Rio paper depends on:
// multi-channel internal parallelism (so completion order differs from
// submission order), a volatile write cache with an expensive device-wide
// FLUSH on flash profiles, power-loss protection (PLP) on Optane profiles,
// a byte-addressable persistent memory region (PMR), and power-cut
// semantics in which volatile state is lost while media and PMR survive.
//
// Content is tracked per logical block as a Rec carrying a 64-bit stamp
// (the identity of the write, used by crash-consistency checks) and an
// optional real payload (used by file-system metadata). With
// Config.KeepHistory the device retains the full per-LBA write history so
// recovery can roll blocks back, modelling out-of-place updates.
package ssd

import (
	"fmt"
	"slices"
	"sort"

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

func (p Profile) String() string {
	if p == Flash {
		return "flash"
	}
	return "optane"
}

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
// storage from Done on, not before.
type Command struct {
	Op     Op
	LBA    uint64
	Blocks uint32
	Stamps []uint64                // per-block write identity; required for writes
	Data   [][]byte                // optional per-block payloads (may be nil)
	Owns   func(stamp uint64) bool // OpErase: which records of a block go
	Done   func(*Command)
	Ctx    any // the submitter's: where a Done shared by many commands finds its per-command state

	// Out is filled by reads: the per-block records observed.
	Out []Rec

	// SatWait accumulates the saturation-model stall charged to this
	// command's segments (the share of service time past the knee) —
	// stage-tracing attribution; plain accounting, never read by the
	// device itself.
	SatWait sim.Time

	dev     *SSD
	pending int
	epoch   uint64
}

// cmdStart, cmdAck and cmdDone are a Command seen as its engine events: the
// start of a command that never waits on device state, the timed
// controller-only acknowledgement (cached read, PLP FLUSH), and the
// completion callback. A command is at most one of them at a time.
type (
	cmdStart Command
	cmdAck   Command
	cmdDone  Command
)

func (c *cmdStart) Run() { c.dev.execute(nil, (*Command)(c)) }

func (c *cmdAck) Run() {
	if c.epoch == c.dev.epoch {
		c.dev.complete((*Command)(c))
	}
}

func (c *cmdDone) Run() {
	if c.epoch == c.dev.epoch {
		c.Done((*Command)(c))
	}
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
	cmd   *Command
	epoch uint64
}

// SSD is one simulated device.
type SSD struct {
	eng     *sim.Engine
	cfg     Config
	cmdName string // name of the per-command procs

	media map[uint64]Rec   // durable content: the current version of each block
	older map[uint64][]Rec // KeepHistory only: the versions under it, oldest first
	cache map[uint64]Rec   // flash volatile dirty blocks
	dirty int
	pmr   []byte

	front       *sim.Resource
	chans       []*sim.Server[segment] // one per parallel media unit
	chanBusy    *sim.Resource          // busy-time accounting across channels
	destageCond *sim.Cond
	cacheCond   *sim.Cond
	flushMu     *sim.Resource
	flushing    bool
	flushCond   *sim.Cond

	epoch uint64
	dead  bool

	stats Stats
}

// New creates a device. Each media channel is a sim.Server (it queues,
// programs, never blocks), so a device owns no process of its own.
func New(e *sim.Engine, cfg Config) *SSD {
	if cfg.Channels <= 0 || cfg.MaxTransferBlocks <= 0 {
		panic("ssd: invalid config")
	}
	if cfg.FrontWidth <= 0 {
		cfg.FrontWidth = 1
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
		cmdName:     cfg.Name + "/cmd",
		media:       make(map[uint64]Rec),
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
	cmd.dev, cmd.epoch = s, s.epoch
	// A flash write (cache space, an active FLUSH) and a flash FLUSH (the
	// drain) wait on device state and get a proc. Everything else only fans
	// out to the channels or is acknowledged after a fixed delay, and starts
	// as a plain event (execute gets no proc): one (at, seq) slot either way.
	if s.cfg.Profile == Flash && (cmd.Op == OpWrite || cmd.Op == OpFlush) {
		s.eng.Go(s.cmdName, func(p *sim.Proc) { s.execute(p, cmd) })
	} else {
		s.eng.Schedule(0, (*cmdStart)(cmd))
	}
}

func (s *SSD) execute(p *sim.Proc, cmd *Command) {
	if cmd.epoch != s.epoch {
		// Power was cut between Submit and this start event: stamping the
		// command's segments with the new epoch would program them.
		s.stats.AbortedCmds++
		return
	}
	switch cmd.Op {
	case OpWrite:
		if s.cfg.Profile == Flash {
			s.execFlashWrite(p, cmd)
		} else {
			s.execDirect(cmd)
		}
	case OpRead:
		s.execRead(cmd)
	case OpFlush:
		s.execFlush(p, cmd)
	case OpErase:
		s.execDirect(cmd)
	}
}

// execFlashWrite lands blocks in the volatile cache and completes; media
// programming happens in the background via destage segments.
func (s *SSD) execFlashWrite(p *sim.Proc, cmd *Command) {
	s.front.Acquire(p)
	// Respect an active FLUSH (device-wide stall) and cache capacity.
	for (s.flushing || s.dirty+int(cmd.Blocks) > s.cfg.CacheCap) && cmd.epoch == s.epoch {
		if s.flushing {
			s.flushCond.Wait(p)
		} else {
			s.cacheCond.Wait(p)
		}
	}
	if cmd.epoch != s.epoch {
		s.front.Release()
		return
	}
	// One command pays full landing cost for its first block; subsequent
	// blocks stream at a third of that (per-command overhead dominates the
	// DRAM landing, so large writes are cheaper per byte than scattered
	// small ones).
	insert := s.cfg.CacheInsertLat
	if cmd.Blocks > 1 {
		insert += s.cfg.CacheInsertLat * sim.Time(cmd.Blocks-1) / 3
	}
	p.Sleep(insert)
	if cmd.epoch != s.epoch {
		s.front.Release()
		return
	}
	for i := uint32(0); i < cmd.Blocks; i++ {
		lba := cmd.LBA + uint64(i)
		rec := Rec{Stamp: cmd.Stamps[i]}
		if cmd.Data != nil && cmd.Data[i] != nil {
			rec.Data = append([]byte(nil), cmd.Data[i]...)
		}
		s.cache[lba] = rec
		s.dirty++
		s.chans[s.chanOf(lba)].Push(segment{lba: lba, rec: rec, epoch: s.epoch})
	}
	if s.dirty > s.stats.MaxDirtySeen {
		s.stats.MaxDirtySeen = s.dirty
	}
	s.front.Release()
	s.complete(cmd)
}

// execDirect routes each block of an Optane write or an erase to its
// channel. The write completes when every block is durable (PLP semantics);
// the erase pays media time like a write, so recovery's roll-back costs what
// it should, and each record is removed at channel completion via Discard.
func (s *SSD) execDirect(cmd *Command) {
	cmd.pending = int(cmd.Blocks)
	for i := uint32(0); i < cmd.Blocks; i++ {
		lba := cmd.LBA + uint64(i)
		seg := segment{lba: lba, erase: cmd.Op == OpErase, cmd: cmd, epoch: s.epoch}
		if !seg.erase {
			seg.rec.Stamp = cmd.Stamps[i]
			if cmd.Data != nil && cmd.Data[i] != nil {
				seg.rec.Data = append([]byte(nil), cmd.Data[i]...)
			}
		}
		s.chans[s.chanOf(lba)].Push(seg)
	}
}

// execRead serves cached blocks at once and fetches the rest through the
// channels. It never yields, so no segment can finish before all are queued.
func (s *SSD) execRead(cmd *Command) {
	cmd.Out = make([]Rec, cmd.Blocks)
	cmd.pending = 0
	for i := uint32(0); i < cmd.Blocks; i++ {
		lba := cmd.LBA + uint64(i)
		if rec, ok := s.cache[lba]; ok {
			cmd.Out[i] = rec
			continue
		}
		cmd.pending++
		s.chans[s.chanOf(lba)].Push(segment{lba: lba, read: true, cmd: cmd, epoch: s.epoch})
	}
	if cmd.pending == 0 {
		// Cache hit: controller-only latency.
		s.eng.Schedule(2*sim.Microsecond, (*cmdAck)(cmd))
	}
}

// execFlush implements the storage barrier. On flash it stalls the device,
// waits for every dirty block to be destaged and charges the drain cost; on
// Optane it acks almost immediately.
func (s *SSD) execFlush(p *sim.Proc, cmd *Command) {
	if s.cfg.Profile == Optane {
		if s.cfg.OptaneFlushLat > 0 {
			s.eng.Schedule(s.cfg.OptaneFlushLat, (*cmdAck)(cmd))
		} else {
			s.complete(cmd)
		}
		return
	}
	s.flushMu.Acquire(p)
	if cmd.epoch != s.epoch {
		s.flushMu.Release()
		return
	}
	start := p.Now()
	s.flushing = true
	drainCost := s.cfg.FlushBase + s.cfg.FlushPerBlock*sim.Time(s.dirty)
	for s.dirty > 0 && cmd.epoch == s.epoch {
		s.destageCond.Wait(p)
	}
	if cmd.epoch != s.epoch {
		s.flushing = false
		s.flushMu.Release()
		return
	}
	p.Sleep(drainCost)
	s.flushing = false
	s.flushCond.Broadcast()
	s.stats.FlushBusy += p.Now() - start
	s.flushMu.Release()
	if cmd.epoch == s.epoch {
		s.complete(cmd)
	}
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
			if seg.cmd != nil {
				seg.cmd.SatWait += stall
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
		seg.cmd.Out[seg.lba-seg.cmd.LBA], _ = s.Durable(seg.lba)
	case seg.erase:
		s.Discard(seg.lba, seg.cmd.Owns)
	default: // program media
		if s.older != nil {
			if cur, ok := s.media[seg.lba]; ok {
				s.older[seg.lba] = append(s.older[seg.lba], cur)
			}
		}
		s.media[seg.lba] = seg.rec
	}
	if cmd := seg.cmd; cmd != nil {
		// Read, erase, Optane direct write: done with its last block.
		if cmd.pending--; cmd.pending == 0 {
			s.complete(cmd)
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

// complete counts a finished command and schedules its Done.
func (s *SSD) complete(cmd *Command) {
	switch cmd.Op {
	case OpWrite:
		s.stats.Writes++
		s.stats.WrittenBlks += int64(cmd.Blocks)
	case OpRead:
		s.stats.Reads++
	case OpFlush:
		s.stats.Flushes++
	}
	if cmd.Done != nil {
		s.eng.Schedule(0, (*cmdDone)(cmd))
	}
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
	rec, ok := s.media[lba]
	return rec, ok
}

// History returns the durable write history of lba, oldest first (more than
// the current version only in KeepHistory mode). The slice is the caller's.
func (s *SSD) History(lba uint64) []Rec {
	cur, ok := s.media[lba]
	if !ok {
		return nil
	}
	return append(slices.Clip(s.older[lba]), cur)
}

// DurableLBAs returns the sorted list of LBAs holding durable content —
// replication uses it to compare replica media for divergence.
func (s *SSD) DurableLBAs() []uint64 {
	out := make([]uint64, 0, len(s.media))
	for lba := range s.media {
		out = append(out, lba)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Discard rolls lba back past every durable record whose stamp owns accepts
// — the current version and, in KeepHistory mode, the retained ones under it
// — modelling recovery erasing out-of-place blocks. It reports whether a
// record was removed.
func (s *SSD) Discard(lba uint64, owns func(stamp uint64) bool) bool {
	cur, ok := s.media[lba]
	if !ok {
		return false
	}
	h := append(s.older[lba], cur) // every version, oldest first, filtered in place
	kept := slices.DeleteFunc(h, func(r Rec) bool { return owns(r.Stamp) })
	switch n := len(kept); {
	case n == len(h):
		return false
	case n == 0:
		delete(s.media, lba)
		delete(s.older, lba)
	default: // KeepHistory only: the newest version left is current
		s.media[lba], s.older[lba] = kept[n-1], kept[:n-1]
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
	s.dirty = 0
	s.flushing = false
	for _, ch := range s.chans {
		s.stats.AbortedCmds += int64(ch.Len())
		ch.Drain()
	}
	// Wake anything stalled on cache space or flush so epoch checks run.
	s.cacheCond.Broadcast()
	s.flushCond.Broadcast()
	s.destageCond.Broadcast()
}

// Restart powers the device back on with media and PMR intact.
func (s *SSD) Restart() { s.dead = false }
