package fs

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// Journal block magics.
const (
	magicDesc   = 0x4A44 // "JD"
	magicCommit = 0x4A43 // "JC"
)

// direntOp is one journaled directory mutation (iJournaling's file-level
// transaction journals the dirent rather than whole directory blocks).
type direntOp struct {
	Dir  uint64
	Ino  uint64
	Add  bool
	Name string
}

// journalArea is one on-disk journal (one per core for RioFS/HoraeFS, a
// single shared one for Ext4).
type journalArea struct {
	id    int
	base  uint64
	size  uint64
	tail  uint64        // next free block offset within the area
	gen   uint64        // bumped at checkpoint; stale txns are ignored at recovery
	chkpt *sim.Resource // serializes checkpointing

	// Ext4 group commit.
	committerOn bool
	joiners     []*commitJoin

	// touched since last checkpoint (for home writes).
	touchedInodes map[uint64]bool
	touchedDirs   map[uint64]bool
}

type commitJoin struct {
	txn  *txnPayload
	done *sim.Signal
}

// descSize is the length of a descriptor: magic, id, gen, inode number,
// dirent count. It and the commit record (magic, id, gen) carry the
// generation at bytes 16–23.
const descSize = 40

// txnPayload is one transaction: what commitTxn records, and its journal
// blocks — descriptor, metadata, commit — cut from one buffer.
type txnPayload struct {
	id       uint64
	inodeIno uint64
	dirents  []direntOp
	payload  [3][]byte
}

// buildTxn snapshots a file's metadata into a transaction (file-level
// granularity, as in iJournaling) and encodes its journal blocks into one
// exact-size buffer. The inode image is taken here, not at submission:
// Ext4's jbd2Commit submits after yields in which the file may grow. The
// record is a committed one recycled (commitTxn), its buffer always new:
// the submitted payloads are shared, never copied.
func (fs *FS) buildTxn(f *File) *txnPayload {
	fs.nextTxnID++
	t := fs.txnFree.Get()
	*t = txnPayload{id: fs.nextTxnID, dirents: t.dirents[:0]}
	var in *inode
	if f != nil {
		in = f.ino
		t.inodeIno = in.Ino
		if op, ok := fs.pendingNewDirs[f.parent]; ok {
			t.dirents = append(t.dirents, op)
			delete(fs.pendingNewDirs, f.parent)
		}
		if f.dirDirty {
			t.dirents = append(t.dirents, direntOp{Dir: f.parent, Ino: in.Ino, Add: true, Name: f.name})
		}
		// Piggyback pending unlink deltas of the file's directory.
		if dels := fs.pendingUnlinks[f.parent]; len(dels) > 0 {
			t.dirents = append(t.dirents, dels...)
			delete(fs.pendingUnlinks, f.parent)
		}
	}

	// Metadata block: inode image + dirent deltas.
	metaSize := 8 + inodeSize(in)
	for _, d := range t.dirents {
		metaSize += 32 + len(d.Name)
	}
	buf := make([]byte, 0, descSize+metaSize+3*8)
	buf = appendU64s(buf, magicDesc, t.id, 0, t.inodeIno, uint64(len(t.dirents)))
	buf = appendU64s(buf, uint64(inodeSize(in)))
	if in != nil {
		buf = appendInode(buf, in)
	}
	for _, d := range t.dirents {
		flag := uint64(0)
		if d.Add {
			flag = 1
		}
		buf = appendU64s(buf, d.Dir, d.Ino, flag, uint64(len(d.Name)))
		buf = append(buf, d.Name...)
	}
	m := len(buf)
	buf = appendU64s(buf, magicCommit, t.id, 0)
	// Capped sub-slices: an append to one block cannot write into the next.
	t.payload = [3][]byte{buf[:descSize:descSize], buf[descSize:m:m], buf[m:]}
	return t
}

// blocks stamps gen into the descriptor and the commit record and returns
// the transaction's journal block payloads. A payload is immutable once
// submitted (the media, replicas and read cache share it), so a
// transaction is re-stamped only before its submission: when the
// checkpoint that made room for it bumped the generation.
func (t *txnPayload) blocks(gen uint64) [][]byte {
	binary.LittleEndian.PutUint64(t.payload[0][16:], gen)
	binary.LittleEndian.PutUint64(t.payload[2][16:], gen)
	return t.payload[:]
}

// decodeTxnBlocks parses a descriptor + metadata pair.
func decodeDescBlock(b []byte) (id, gen, ino uint64, nDirents int, ok bool) {
	if len(b) < 40 {
		return 0, 0, 0, 0, false
	}
	g := func(i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }
	if g(0) != magicDesc {
		return 0, 0, 0, 0, false
	}
	return g(1), g(2), g(3), int(g(4)), true
}

func decodeCommitBlock(b []byte) (id, gen uint64, ok bool) {
	if len(b) < 24 {
		return 0, 0, false
	}
	g := func(i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }
	if g(0) != magicCommit {
		return 0, 0, false
	}
	return g(1), g(2), true
}

func decodeMetaBlock(b []byte, nDirents int) (inodeBytes []byte, dirents []direntOp, ok bool) {
	if len(b) < 8 {
		return nil, nil, false
	}
	off := 0
	g := func() uint64 {
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v
	}
	il := int(g())
	if off+il > len(b) {
		return nil, nil, false
	}
	inodeBytes = b[off : off+il]
	off += il
	for i := 0; i < nDirents; i++ {
		if off+32 > len(b) {
			return nil, nil, false
		}
		var d direntOp
		d.Dir = g()
		d.Ino = g()
		d.Add = g() == 1
		nl := int(g())
		if off+nl > len(b) {
			return nil, nil, false
		}
		d.Name = string(b[off : off+nl])
		off += nl
		dirents = append(dirents, d)
	}
	return inodeBytes, dirents, true
}

// Fsync makes the file durable. core selects the journal/stream (the
// calling thread's CPU, per iJournaling). This is the heart of Fig. 9 and
// Fig. 14. It returns stack.ErrServerDown if the file system's server died
// while the fsync waited for its commit.
func (fs *FS) Fsync(p *sim.Proc, f *File, core int) error {
	start := p.Now()
	var tr FsyncTrace
	var err error
	switch fs.cfg.Design {
	case Ext4:
		tr, err = fs.fsyncExt4(p, f)
	default:
		tr, err = fs.fsyncAsync(p, f, core)
	}
	tr.Total = p.Now() - start
	fs.stats.Fsyncs++
	if fs.TraceHook != nil {
		fs.TraceHook(tr)
	}
	return err
}

// fsyncAsync is the RioFS/HoraeFS path: D, JM and JC all go through the
// ordered stream; a single wait on JC provides durability. On the Horae
// cluster the per-request control path inside OrderedWrite provides the
// ordering (and shows up as JM/JC dispatch latency); on Rio the dispatch
// is asynchronous.
func (fs *FS) fsyncAsync(p *sim.Proc, f *File, core int) (FsyncTrace, error) {
	var tr FsyncTrace
	j := fs.journalFor(core)
	stream := j.id

	// D: user data blocks (page-cache work + ordered dispatch).
	t0 := p.Now()
	dirty := f.dirtyData
	f.dirtyData = dirty[len(dirty):] // later appends land past dirty
	for _, d := range dirty {
		fs.in.UseCPU(p, fs.in.Costs().FSDataCPU)
		// All data blocks of the transaction form one group with JM.
		fs.in.Release(fs.in.OrderedWrite(p, stream, d.lba, 1, d.stamp, nil, false, false, d.ipu))
	}
	tr.DDispatch = p.Now() - t0

	// JM: descriptor + metadata in the journal area.
	t0 = p.Now()
	txn := fs.buildTxn(f)
	blocks := txn.blocks(j.gen)
	if j.tail+uint64(len(blocks))+1 > j.size {
		fs.checkpoint(p, j)
		blocks = txn.blocks(j.gen) // re-stamp under the new generation, before submission
	}
	jmLBA := j.base + j.tail
	j.tail += 2 // JC gets its own block below
	fs.in.UseCPU(p, fs.in.Costs().FSMetaCPU)
	fs.in.Release(fs.in.OrderedWrite(p, stream, jmLBA, 2, fs.nextStamp(), blocks[:2], true, false, false))
	tr.JMDispatch = p.Now() - t0

	// JC: commit record closes its own group and carries the FLUSH.
	t0 = p.Now()
	jcLBA := j.base + j.tail
	j.tail++
	jc := fs.in.OrderedWrite(p, stream, jcLBA, 1, fs.nextStamp(), blocks[2:], true, true, false)
	tr.JCDispatch = p.Now() - t0

	// rio_wait: one blocking wait for the commit record. D and JM were
	// released as submitted: in-order delivery vouches for them.
	t0 = p.Now()
	err := fs.in.Wait(p, jc)
	fs.in.Release(jc)
	tr.WaitIO = p.Now() - t0

	fs.commitTxn(j, txn)
	f.dirDirty = false
	return tr, err
}

// fsyncExt4 is the JBD2 path: synchronous transfer and FLUSH commands
// provide the ordering, and concurrent fsyncs share one running
// transaction (group commit).
func (fs *FS) fsyncExt4(p *sim.Proc, f *File) (FsyncTrace, error) {
	var tr FsyncTrace
	j := fs.journals[0]

	// D: write user data in place and wait (ordered mode: data before
	// metadata).
	t0 := p.Now()
	dirty := f.dirtyData
	f.dirtyData = dirty[len(dirty):] // later appends land past dirty
	var dreqs []*blockdev.Request
	for _, d := range dirty {
		fs.in.UseCPU(p, fs.in.Costs().FSDataCPU)
		dreqs = append(dreqs, fs.in.OrderlessWrite(p, 0, d.lba, 1, d.stamp, nil))
	}
	tr.DDispatch = p.Now() - t0
	t0 = p.Now()
	fs.waitRelease(p, dreqs)
	wait1 := p.Now() - t0

	// Join the running transaction (group commit).
	txn := fs.buildTxn(f)
	join := &commitJoin{txn: txn, done: sim.NewSignal(fs.in.Eng)}
	j.joiners = append(j.joiners, join)
	if !j.committerOn {
		j.committerOn = true
		fs.in.Eng.Go("jbd2/commit", func(cp *sim.Proc) { fs.jbd2Commit(cp, j) })
	}
	t0 = p.Now()
	err := fs.in.WaitSignal(p, join.done)
	tr.WaitIO = wait1 + (p.Now() - t0)
	f.dirDirty = false
	return tr, err
}

// jbd2Commit flushes one batch of joined transactions: JM blocks for every
// joiner, FLUSH, one commit record, FLUSH.
func (fs *FS) jbd2Commit(p *sim.Proc, j *journalArea) {
	for len(j.joiners) > 0 {
		batch := j.joiners
		j.joiners = nil

		encode := func() (meta, commits [][]byte) {
			for _, join := range batch {
				b := join.txn.blocks(j.gen)
				meta = append(meta, b[:2]...)
				commits = append(commits, b[2])
			}
			return meta, commits
		}
		meta, commits := encode()
		need := uint64(len(meta) + len(commits))
		if j.tail+need > j.size {
			fs.checkpoint(p, j)
			meta, commits = encode() // re-stamp under the new generation, before submission
		}
		// JM: descriptor + metadata blocks, synchronous transfer.
		lba := j.base + j.tail
		j.tail += need
		var reqs []*blockdev.Request
		writeRun := func(base uint64, payloads [][]byte) {
			for off := 0; off < len(payloads); off += 16 {
				n := len(payloads) - off
				if n > 16 {
					n = 16
				}
				fs.in.UseCPU(p, fs.in.Costs().FSMetaCPU)
				reqs = append(reqs, fs.in.OrderlessWrite(p, 0, base+uint64(off), uint32(n),
					fs.nextStamp(), payloads[off:off+n]))
			}
		}
		writeRun(lba, meta)
		fs.waitRelease(p, reqs)
		// Barrier: metadata durable before the commit records exist.
		fs.in.FlushDevice(p, 0)
		reqs = reqs[:0]
		writeRun(lba+uint64(len(meta)), commits)
		fs.waitRelease(p, reqs)
		// Barrier: commit records durable before fsync returns.
		fs.in.FlushDevice(p, 0)
		for _, join := range batch {
			fs.commitTxn(j, join.txn)
			join.done.Fire()
		}
	}
	j.committerOn = false
}

func (fs *FS) commitTxn(j *journalArea, t *txnPayload) {
	fs.stats.Commits++
	if j.touchedInodes == nil {
		j.touchedInodes = map[uint64]bool{}
		j.touchedDirs = map[uint64]bool{}
	}
	if t.inodeIno != 0 {
		j.touchedInodes[t.inodeIno] = true
	}
	for _, d := range t.dirents {
		j.touchedDirs[d.Dir] = true
	}
	fs.txnFree.Put(t)
}

// waitRelease waits for every request of reqs, releasing each once its
// wait returns.
func (fs *FS) waitRelease(p *sim.Proc, reqs []*blockdev.Request) {
	for _, r := range reqs {
		fs.in.Wait(p, r)
		fs.in.Release(r)
	}
}

// checkpoint writes the journaled state to home locations, bumps the
// generation and resets the area (JBD2 checkpointing / iJournaling
// journal reclamation).
func (fs *FS) checkpoint(p *sim.Proc, j *journalArea) {
	j.chkpt.Acquire(p)
	defer j.chkpt.Release()
	fs.stats.Checkpoints++
	var reqs []*blockdev.Request
	// Home writes go in key order; presized, the keys cost one allocation.
	inos := slices.AppendSeq(make([]uint64, 0, len(j.touchedInodes)), maps.Keys(j.touchedInodes))
	slices.Sort(inos)
	for _, ino := range inos {
		in := fs.inodes[ino]
		if in == nil {
			continue // unlinked before checkpoint
		}
		lba := fs.inodeHome(ino)
		reqs = append(reqs, fs.in.OrderlessWrite(p, j.id, lba, 1, fs.nextStamp(),
			[][]byte{encodeInode(in)}))
	}
	dirs := slices.AppendSeq(make([]uint64, 0, len(j.touchedDirs)), maps.Keys(j.touchedDirs))
	slices.Sort(dirs)
	for _, dir := range dirs {
		if _, ok := fs.dirs[dir]; !ok {
			continue
		}
		reqs = append(reqs, fs.writeDirHome(p, j.id, dir)...)
	}
	fs.waitRelease(p, reqs)
	// Superblock records the new generation; barrier makes it all stick.
	j.gen++
	j.tail = 0
	j.touchedInodes = map[uint64]bool{}
	j.touchedDirs = map[uint64]bool{}
	sb := fs.in.OrderlessWrite(p, j.id, fs.superLBA, 1, fs.nextStamp(),
		[][]byte{fs.encodeSuper()})
	fs.in.Wait(p, sb)
	fs.in.Release(sb)
	fs.in.FlushDevice(p, j.id)
}

// inodeHome is the fixed home block of an inode.
func (fs *FS) inodeHome(ino uint64) uint64 {
	return fs.inodeBase + (ino % fs.cfg.MaxInodes)
}

// dirHomeBlocks is the fixed per-directory home region (32 blocks).
const dirHomeBlocks = 32

// maxDirs bounds the directory home region.
const maxDirs = 4096

func (fs *FS) dirHome(dir uint64) uint64 {
	return fs.inodeBase + fs.cfg.MaxInodes + (dir%maxDirs)*dirHomeBlocks
}

func (fs *FS) writeDirHome(p *sim.Proc, stream int, dir uint64) []*blockdev.Request {
	payload := encodeDir(dir, fs.dirs[dir])
	base := fs.dirHome(dir)
	var reqs []*blockdev.Request
	for off := 0; off < len(payload); off += BlockSize {
		end := off + BlockSize
		if end > len(payload) {
			end = len(payload)
		}
		blk := uint64(off / BlockSize)
		if blk >= dirHomeBlocks {
			panic(fmt.Sprintf("fs: directory %d exceeds home region", dir))
		}
		reqs = append(reqs, fs.in.OrderlessWrite(p, stream, base+blk, 1, fs.nextStamp(),
			[][]byte{payload[off:end]}))
	}
	return reqs
}
