package stack

import (
	"sort"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// The initiator-side read path. With Config.CacheBlocks > 0 each
// initiator holds a bounded CLOCK cache of 4 KB blocks keyed by device
// block address, populated on read completion AND on write submission
// (a thread re-reading what it just wrote never crosses the fabric),
// plus a per-stream sequential detector that prefetches ReadAhead
// blocks once an ascending-LBA run is established. Prefetches are
// grouped with the demand misses of the same call into one batched
// message per target, so they ride the same doorbell instead of paying
// their own.
//
// Correctness is epoch-fenced, mirroring the write path's incarnation
// rules: an initiator crash drops the whole cache with the rest of the
// volatile state (crashVolatile), a target power cut drops every cached
// block of that target's replica set before the cluster state can roll
// back or diverge (PowerCutTarget), and a resync rejoin drops the set
// again before the member serves reads. A cache hit therefore can never
// return a block a dead incarnation wrote or the cluster rolled back;
// CacheAudit verifies exactly that invariant against the devices.

// rcKey packs a (device, device LBA) pair into the cache key. Devices
// are far below 2^24 and device LBAs below 2^40 (deviceBlocks is
// 2^22), so the packing is collision-free.
func rcKey(dev int, devLBA uint64) uint64 { return uint64(dev)<<40 | devLBA }

func rcKeySplit(k uint64) (dev int, devLBA uint64) {
	return int(k >> 40), k & ((1 << 40) - 1)
}

// RCacheStats counts read-cache and read-ahead events on one initiator
// (the public API re-exports it as rio.CacheStats).
type RCacheStats struct {
	Hits          int64 // demand reads served from the cache
	Misses        int64 // demand reads that crossed the fabric
	Inserts       int64 // blocks populated (read completions and writes)
	Evictions     int64 // blocks displaced by CLOCK replacement
	Invalidations int64 // blocks fenced by faults, recovery or resync

	ReadAheadIssued int64 // blocks prefetched
	ReadAheadHits   int64 // prefetched blocks that served a demand hit
	ReadAheadWasted int64 // prefetched blocks evicted or fenced unused
}

// HitRate returns hits / (hits + misses), 0 when no read probed.
func (s RCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Sub returns the counter deltas s - old (for measurement windows).
func (s RCacheStats) Sub(old RCacheStats) RCacheStats { return metrics.Delta(s, old) }

// Add returns the counter sums s + o (for cluster-wide aggregation).
func (s RCacheStats) Add(o RCacheStats) RCacheStats { return metrics.Sum(s, o) }

// rcEntry is one cached block.
type rcEntry struct {
	key        uint64
	rec        ssd.Rec
	set        int  // replica set holding the block
	ref        bool // CLOCK reference bit
	prefetched bool // filled by read-ahead, no demand hit yet
	live       bool
}

// rcache is the per-initiator block cache: a fixed slot array under
// CLOCK replacement with a map index, plus the per-stream sequential
// read detector state.
type rcache struct {
	slots []rcEntry
	index map[uint64]int
	hand  int
	stats RCacheStats

	// Sequential detection, per stream: the LBA the next access of an
	// ascending run would start at, the current run length, and the
	// logical LBA prefetch has been issued up to (so overlapping windows
	// of one run do not re-prefetch).
	nextLBA []uint64
	runLen  []int
	prefTo  []uint64
}

func newRCache(blocks, streams int) *rcache {
	return &rcache{
		slots:   make([]rcEntry, blocks),
		index:   make(map[uint64]int, blocks),
		nextLBA: make([]uint64, streams),
		runLen:  make([]int, streams),
		prefTo:  make([]uint64, streams),
	}
}

// contains probes without touching hit/miss accounting or reference
// bits (used when building prefetch windows).
func (rc *rcache) contains(dev int, devLBA uint64) bool {
	_, ok := rc.index[rcKey(dev, devLBA)]
	return ok
}

// get probes for a demand read, updating hit/miss accounting and the
// CLOCK reference bit.
func (rc *rcache) get(dev int, devLBA uint64) (ssd.Rec, bool) {
	if i, ok := rc.index[rcKey(dev, devLBA)]; ok {
		e := &rc.slots[i]
		e.ref = true
		if e.prefetched {
			e.prefetched = false
			rc.stats.ReadAheadHits++
		}
		rc.stats.Hits++
		return e.rec, true
	}
	rc.stats.Misses++
	return ssd.Rec{}, false
}

// put inserts or overwrites one block. A demand or write overwrite of a
// prefetched entry clears the prefetch flag (the block is hot on its
// own merits now); a prefetch completion never re-flags an entry a
// demand path already owns.
func (rc *rcache) put(dev int, devLBA uint64, set int, rec ssd.Rec, prefetched bool) {
	k := rcKey(dev, devLBA)
	if i, ok := rc.index[k]; ok {
		e := &rc.slots[i]
		e.rec, e.set, e.ref = rec, set, true
		if !prefetched {
			e.prefetched = false
		}
		return
	}
	i := rc.clockSlot()
	rc.slots[i] = rcEntry{key: k, rec: rec, set: set, ref: true, prefetched: prefetched, live: true}
	rc.index[k] = i
	rc.stats.Inserts++
}

// clockSlot runs the CLOCK hand to a victim slot, evicting its entry.
func (rc *rcache) clockSlot() int {
	for {
		i := rc.hand
		rc.hand++
		if rc.hand == len(rc.slots) {
			rc.hand = 0
		}
		e := &rc.slots[i]
		if !e.live {
			return i
		}
		if e.ref {
			e.ref = false
			continue
		}
		delete(rc.index, e.key)
		rc.stats.Evictions++
		if e.prefetched {
			rc.stats.ReadAheadWasted++
		}
		e.live = false
		return i
	}
}

func (rc *rcache) dropEntry(i int) {
	e := &rc.slots[i]
	delete(rc.index, e.key)
	rc.stats.Invalidations++
	if e.prefetched {
		rc.stats.ReadAheadWasted++
	}
	*e = rcEntry{}
}

// invalidateAll drops every cached block (initiator crash: the cache is
// volatile state of the dead incarnation).
func (rc *rcache) invalidateAll() {
	for i := range rc.slots {
		if rc.slots[i].live {
			rc.dropEntry(i)
		}
	}
	for s := range rc.nextLBA {
		rc.nextLBA[s], rc.runLen[s], rc.prefTo[s] = 0, 0, 0
	}
}

// invalidateSet drops every cached block of one replica set (target
// power cut or resync rejoin: the set's content may roll back or
// change under the member's recovery).
func (rc *rcache) invalidateSet(set int) {
	for i := range rc.slots {
		if rc.slots[i].live && rc.slots[i].set == set {
			rc.dropEntry(i)
		}
	}
}

// streamAdvance feeds one access to a stream's sequential detector and
// returns the logical prefetch window [start, start+n) to issue (n == 0
// when none): an ascending run of at least two accesses prefetches
// ahead blocks past the access, minus whatever an earlier window of the
// same run already covered.
func (rc *rcache) streamAdvance(stream int, lba uint64, blocks uint32, ahead int) (uint64, uint32) {
	seq := rc.runLen[stream] > 0 && lba == rc.nextLBA[stream]
	if seq {
		rc.runLen[stream]++
	} else {
		rc.runLen[stream] = 1
		rc.prefTo[stream] = 0
	}
	rc.nextLBA[stream] = lba + uint64(blocks)
	if !seq || ahead <= 0 {
		return 0, 0
	}
	start := lba + uint64(blocks)
	if rc.prefTo[stream] > start {
		start = rc.prefTo[stream]
	}
	end := lba + uint64(blocks) + uint64(ahead)
	if end <= start {
		return 0, 0
	}
	rc.prefTo[stream] = end
	return start, uint32(end - start)
}

// readRun is one device-contiguous fetch the cached read path issues:
// a demand miss run (copied into the caller's buffer at outOff) or a
// prefetch run (cache-fill only).
type readRun struct {
	dev      int
	devLBA   uint64
	blocks   uint32
	set      int
	ssdIdx   int
	outOff   int
	prefetch bool
}

// pendingRead tracks one in-flight read command (of either read path) so a
// target power cut can reroute it to a surviving replica member (or
// fail it) instead of stranding the reader forever, and an initiator
// crash can abandon it. Keyed by a monotonic id so crash sweeps iterate
// deterministically.
type pendingRead struct {
	id       uint64
	epoch    int
	dev      int
	devLBA   uint64
	blocks   uint32
	set      int
	ssdIdx   int
	target   int // member currently serving this read
	out      []ssd.Rec
	outOff   int
	prefetch bool
	noFill   bool           // a newer write superseded this fill: do not cache it
	wg       *sim.WaitGroup // demand reads only
	done     bool
}

// ReadCacheStats returns this initiator's read-cache counters (zero
// when the cache is off).
func (in *Initiator) ReadCacheStats() RCacheStats {
	if in.rcache == nil {
		return RCacheStats{}
	}
	return in.rcache.stats
}

// readCached is the cached read path: probe per block, batch the misses
// (and any read-ahead window) into one message per target, wait for the
// demand fills, and return. A full hit answers at initiator CPU cost
// with no fabric round trip.
func (in *Initiator) readCached(p *sim.Proc, stream int, lba uint64, blocks uint32, ahead int) []ssd.Rec {
	rc := in.rcache
	in.useInitCPU(p, in.costs.SubmitBio+in.costs.CacheBlockCPU*sim.Time(blocks))
	out := make([]ssd.Rec, blocks)
	if !in.alive {
		return out
	}
	// Demand runs cover the probe's misses; hits are answered in place.
	runs := in.deviceRuns(lba, blocks, false, func(ext blockdev.Extent, j uint32) bool {
		rec, hit := rc.get(ext.Dev, ext.DevLBA+uint64(j))
		if hit {
			out[ext.Offset+j] = rec
		}
		return !hit
	})

	// Sequential read-ahead: detect the run, clamp the window to the
	// volume, and queue cache fills for the blocks not already cached.
	if ahead == 0 {
		ahead = in.cfg.ReadAhead
	}
	if ahead < 0 {
		ahead = 0
	}
	if start, n := rc.streamAdvance(stream, lba, blocks, ahead); n > 0 {
		if start+uint64(n) > in.vol.Blocks() {
			if start >= in.vol.Blocks() {
				n = 0
			} else {
				n = uint32(in.vol.Blocks() - start)
			}
		}
		if n > 0 {
			// Prefetch runs skip blocks already cached, without touching
			// hit/miss accounting or reference bits.
			runs = append(runs, in.deviceRuns(start, n, true, func(ext blockdev.Extent, j uint32) bool {
				return !rc.contains(ext.Dev, ext.DevLBA+uint64(j))
			})...)
		}
	}
	if len(runs) == 0 {
		return out
	}

	// Group the fetches per target member so demand misses and
	// prefetches of one call share a message and its doorbell.
	wg := sim.NewWaitGroup(in.Eng)
	demand := 0
	byMember := map[int][]readRun{}
	var members []int
	for _, r := range runs {
		m := in.c.readMemberFor(r.set, r.ssdIdx, r.devLBA, r.blocks)
		if m < 0 || !in.targets[m].alive {
			continue // set down: demand blocks stay zero, prefetch is dropped
		}
		if _, ok := byMember[m]; !ok {
			members = append(members, m)
		}
		byMember[m] = append(byMember[m], r)
	}
	sort.Ints(members)
	for _, m := range members {
		group := byMember[m]
		in.useInitCPU(p, in.costs.CmdBuild*sim.Time(len(group))+in.costs.PostMsg)
		in.stats.ReadMsgs++
		in.stats.ReadCmds += int64(len(group))
		in.targets[m].stats.Reads += int64(len(group))
		for _, r := range group {
			pr := &pendingRead{
				dev: r.dev, devLBA: r.devLBA, blocks: r.blocks,
				set: r.set, ssdIdx: r.ssdIdx, outOff: r.outOff, prefetch: r.prefetch,
			}
			if r.prefetch {
				rc.stats.ReadAheadIssued += int64(r.blocks)
			} else {
				pr.out = out
				pr.wg = wg
				wg.Add(1)
				demand++
			}
			// A fill overlapping a write still in flight could read
			// pre-write media and land it AFTER the write's cache
			// population: fetch (demand callers need the data) but do
			// not cache. Writes dispatched later than this point are
			// handled by the supersede loop in rcachePopulateWire.
			pr.noFill = in.writeInFlight(r.dev, r.devLBA, r.blocks)
			in.submitPendingRead(in.trackRead(pr), m)
		}
	}
	if demand > 0 {
		wg.Wait(p)
		p.Sleep(in.cfg.Fabric.PropDelay) // response path
		in.useInitCPU(p, in.costs.CplHandle)
	}
	return out
}

// deviceRuns maps the logical range [lba, lba+blocks) to device-contiguous
// fetch runs over the blocks want selects (called once per block, in
// ascending order; nil selects every block), each capped at
// maxTransferBlocks. outOff is the run's offset
// in the range: where a demand run lands in the caller's buffer (prefetch
// runs only fill the cache and never read it).
func (in *Initiator) deviceRuns(lba uint64, blocks uint32, prefetch bool, want func(ext blockdev.Extent, j uint32) bool) []readRun {
	var runs []readRun
	for _, ext := range in.vol.Extents(lba, blocks) {
		ref := in.vol.Dev(ext.Dev)
		runStart := int32(-1)
		for j := uint32(0); j <= ext.Blocks; j++ {
			wanted := j < ext.Blocks && (want == nil || want(ext, j))
			if wanted {
				if runStart < 0 {
					runStart = int32(j)
				}
				if j-uint32(runStart)+1 < maxTransferBlocks {
					continue
				}
			}
			if runStart >= 0 {
				n := j - uint32(runStart)
				if wanted {
					n++ // run closed by the transfer limit, not by an unwanted block
				}
				runs = append(runs, readRun{
					dev: ext.Dev, devLBA: ext.DevLBA + uint64(runStart), blocks: n,
					set: ref.Server, ssdIdx: ref.SSD, outOff: int(ext.Offset) + int(runStart), prefetch: prefetch,
				})
				runStart = -1
			}
		}
	}
	return runs
}

// writeInFlight reports whether any outstanding write wire of the
// current epoch overlaps [devLBA, devLBA+blocks) on dev. A wire stays
// outstanding from creation until it is recycled — every member's media
// landing resolved and every origin request delivered — which covers the
// window in which a fill could read pre-write content and insert it after
// the write's cache population.
// The result is a boolean over the whole map, so the nondeterministic
// iteration order cannot leak into the simulation.
func (in *Initiator) writeInFlight(dev int, devLBA uint64, blocks uint32) bool {
	for _, ws := range in.outstanding {
		if ws.wc.Flush || ws.epoch != in.epoch {
			continue
		}
		wc := ws.wc
		if wc.Dev == dev && wc.LBA < devLBA+uint64(blocks) && devLBA < wc.LBA+uint64(wc.Blocks) {
			return true
		}
	}
	return false
}

// trackRead registers one read command of the current incarnation as in
// flight, under the next id.
func (in *Initiator) trackRead(pr *pendingRead) *pendingRead {
	in.nextReadID++
	pr.id, pr.epoch = in.nextReadID, in.epoch
	in.pendingReads[pr.id] = pr
	return pr
}

// submitPendingRead posts one read command toward a member target:
// command out after the fabric propagation delay, data back via
// one-sided RDMA modeled by the SSD read plus the response-path sleep
// the caller pays once.
func (in *Initiator) submitPendingRead(pr *pendingRead, member int) {
	pr.target = member
	t := in.targets[member]
	cmd := &ssd.Command{
		Op: ssd.OpRead, LBA: pr.devLBA, Blocks: pr.blocks,
		Done: func(sc *ssd.Command) { in.finishPendingRead(pr, sc) },
	}
	in.Eng.At(in.cfg.Fabric.PropDelay, func() { t.ssds[pr.ssdIdx].Submit(cmd) })
}

// finishPendingRead lands one read completion: fill the cache (demand
// and prefetch), copy demand data out, release the waiter. Completions
// of abandoned reads (initiator crash, target cut rerouted the read)
// are dropped by the done flag / epoch fences.
func (in *Initiator) finishPendingRead(pr *pendingRead, sc *ssd.Command) {
	if pr.done {
		return
	}
	pr.done = true
	delete(in.pendingReads, pr.id)
	if pr.epoch != in.epoch {
		return
	}
	if in.rcache != nil && !pr.noFill {
		for i := uint32(0); i < pr.blocks; i++ {
			in.rcache.put(pr.dev, pr.devLBA+uint64(i), pr.set, sc.Out[i], pr.prefetch)
		}
	}
	if pr.wg != nil {
		copy(pr.out[pr.outOff:pr.outOff+int(pr.blocks)], sc.Out)
		pr.wg.Done()
	}
}

// sortedPendingReads returns the in-flight read ids in issue order, so
// the crash sweeps below iterate deterministically.
func (in *Initiator) sortedPendingReads() []uint64 {
	ids := make([]uint64, 0, len(in.pendingReads))
	for id := range in.pendingReads {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// abortTargetReads handles a target power cut on this initiator's read
// state: every cached block of the target's replica set is dropped
// (the set may roll back or diverge under recovery), and every
// in-flight read toward the dead member is rerouted to a surviving
// in-sync member — or failed, releasing its waiter, when none is left.
func (in *Initiator) abortTargetReads(target int) {
	in.invalidateSetReads(in.c.SetOf(target))
	for _, id := range in.sortedPendingReads() {
		pr := in.pendingReads[id]
		if pr.target != target {
			continue
		}
		m := in.c.readMemberFor(pr.set, pr.ssdIdx, pr.devLBA, pr.blocks)
		if m >= 0 && m != target && in.targets[m].alive {
			in.submitPendingRead(pr, m)
			continue
		}
		pr.done = true
		delete(in.pendingReads, id)
		if pr.wg != nil {
			pr.wg.Done() // read fails: the demand blocks stay zero
		}
	}
}

// invalidateSetReads drops this initiator's cached blocks of one
// replica set (resync rejoin, target replay recovery).
func (in *Initiator) invalidateSetReads(set int) {
	if in.rcache != nil {
		in.rcache.invalidateSet(set)
	}
}

// abortAllReads is the initiator-crash hook: the cache and every
// in-flight read die with the rest of the volatile state. Waiters are
// released (their threads observe the dead server via Alive()).
func (in *Initiator) abortAllReads() {
	if in.rcache != nil {
		in.rcache.invalidateAll()
	}
	for _, id := range in.sortedPendingReads() {
		pr := in.pendingReads[id]
		pr.done = true
		if pr.wg != nil {
			pr.wg.Done()
		}
	}
	in.pendingReads = make(map[uint64]*pendingRead)
}

// rcachePopulateWires mirrors a dispatched batch's writes into the read
// cache under the stamps the commands carry to media (wc.Stamps), so
// CacheAudit can compare cached content against device content exactly.
// Under replication one insert covers the set: every member is sent the
// same command.
func (in *Initiator) rcachePopulateWires(p *sim.Proc, wires []*wireState) {
	if in.rcache == nil {
		return
	}
	var blocks int64
	for _, ws := range wires {
		if ws.wc.Flush {
			continue
		}
		// A write toward a set whose serving member is down cannot land:
		// the request will fail, and caching its blocks would seed
		// phantom hits that survive the target's rollback-recovery.
		m := in.c.readMemberFor(ws.target, in.vol.Dev(ws.wc.Dev).SSD, ws.wc.LBA, ws.wc.Blocks)
		if m < 0 || !in.targets[m].alive {
			continue
		}
		blocks += int64(ws.wc.Blocks)
		in.rcachePopulateWire(ws)
	}
	if blocks > 0 {
		in.useInitCPU(p, in.costs.CacheBlockCPU*sim.Time(blocks))
	}
}

func (in *Initiator) rcachePopulateWire(ws *wireState) {
	wc := ws.wc
	// Supersede overlapping in-flight fills: a read issued before this
	// write still returns the old data to ITS caller (linearizable —
	// the read began first), but landing that old content in the cache
	// AFTER this population would roll a hit back in time.
	for _, pr := range in.pendingReads {
		if pr.noFill || pr.dev != wc.Dev {
			continue
		}
		if pr.devLBA < wc.LBA+uint64(wc.Blocks) && wc.LBA < pr.devLBA+uint64(pr.blocks) {
			pr.noFill = true
		}
	}
	for i := uint32(0); i < wc.Blocks; i++ {
		rec := ssd.Rec{Stamp: wc.Stamps[i]}
		if wc.Data != nil && wc.Data[i] != nil {
			rec.Data = append([]byte(nil), wc.Data[i]...)
		}
		in.rcache.put(wc.Dev, wc.LBA+uint64(i), ws.target, rec, false)
	}
}

// CacheAudit checks, at a quiescent point, that no initiator caches a
// block differing from the content a read would observe at the member
// currently serving that block — i.e. no crash, rollback, resync or
// failover left a stale hit behind. Returns the number of stale
// entries (0 on a healthy cluster).
func (c *Cluster) CacheAudit() int {
	bad := 0
	for _, in := range c.inits {
		if in.rcache == nil {
			continue
		}
		for i := range in.rcache.slots {
			e := &in.rcache.slots[i]
			if !e.live {
				continue
			}
			dev, devLBA := rcKeySplit(e.key)
			ref := c.vol.Dev(dev)
			m := c.readMemberFor(ref.Server, ref.SSD, devLBA, 1)
			if m < 0 || !c.targets[m].alive {
				bad++ // cached block of a fully-down set: must have been invalidated
				continue
			}
			vrec, _ := c.targets[m].ssds[ref.SSD].Visible(devLBA)
			if vrec.Stamp != e.rec.Stamp {
				bad++
			}
		}
	}
	return bad
}
