package fs

import (
	"encoding/binary"
	"sort"

	"repro/internal/sim"
	"repro/internal/stack"
)

const superMagic = 0x52F5 // "RioFS"

// encodeSuper serializes the mount state persisted at checkpoints.
func (fs *FS) encodeSuper() []byte {
	buf := appendU64s(make([]byte, 0, 128), superMagic, uint64(fs.cfg.Design), uint64(fs.cfg.Journals),
		fs.cfg.JournalBlocks, fs.cfg.MaxInodes, fs.nextIno, fs.alloc.next, fs.nextTxnID)
	for _, j := range fs.journals {
		buf = appendU64s(buf, j.gen)
	}
	// Inodes/dirs known at checkpoint time (so recovery knows which home
	// blocks to read).
	inos := make([]uint64, 0, len(fs.inodes))
	for ino := range fs.inodes {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	return appendU64s(appendU64s(buf, uint64(len(inos))), inos...)
}

type superState struct {
	design    Design
	journals  int
	nextIno   uint64
	allocNext uint64
	nextTxnID uint64
	gens      []uint64
	inos      []uint64
	ok        bool
}

func decodeSuper(b []byte, journals int) superState {
	var s superState
	if len(b) < 64 {
		return s
	}
	off := 0
	g := func() uint64 {
		if off+8 > len(b) {
			return 0
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v
	}
	if g() != superMagic {
		return s
	}
	s.design = Design(g())
	s.journals = int(g())
	g() // journal blocks
	g() // max inodes
	s.nextIno = g()
	s.allocNext = g()
	s.nextTxnID = g()
	for j := 0; j < s.journals; j++ {
		s.gens = append(s.gens, g())
	}
	n := int(g())
	for i := 0; i < n; i++ {
		s.inos = append(s.inos, g())
	}
	s.ok = true
	return s
}

// RecoverStats summarizes journal replay.
type RecoverStats struct {
	Committed   int // transactions replayed
	Incomplete  int // transactions discarded (no durable commit record)
	InodesAlive int
}

// Remount mounts the file system from durable media after a crash: it
// reads the superblock, reloads checkpointed inodes and directories, then
// replays committed journal transactions in order. For RioFS the storage
// order guarantee means a durable commit record implies its whole
// transaction (D, JM) is durable — no checksums or scanning heuristics are
// needed, which is exactly the property Rio sells (§4.8). The remounted
// file system is bound to in, which need not be the initiator that wrote
// the state — any live server can reclaim a crashed tenant's volume.
func Remount(p *sim.Proc, in *stack.Initiator, opts Options) (*FS, RecoverStats) {
	fs := Open(in, opts)
	var st RecoverStats

	// Superblock.
	sb := in.Read(p, fs.superLBA, 1)
	super := superState{}
	if len(sb) == 1 && sb[0].Data != nil {
		super = decodeSuper(sb[0].Data, fs.cfg.Journals)
	}
	if super.ok {
		fs.nextIno = super.nextIno
		fs.alloc.next = super.allocNext
		fs.nextTxnID = super.nextTxnID
		for j, g := range super.gens {
			if j < len(fs.journals) {
				fs.journals[j].gen = g
			}
		}
		// Checkpointed inodes.
		for _, ino := range super.inos {
			if ino == rootIno {
				continue
			}
			recs := in.Read(p, fs.inodeHome(ino), 1)
			if len(recs) == 1 && recs[0].Data != nil {
				if in, ok := decodeInode(recs[0].Data); ok && in.Ino == ino {
					fs.inodes[ino] = in
					if in.IsDir {
						fs.loadDirHome(p, ino)
					}
				}
			}
		}
		fs.loadDirHome(p, rootIno)
	}

	// Journal replay: committed transactions in global txn order.
	type replayTxn struct {
		id      uint64
		inode   []byte
		dirents []direntOp
	}
	var committed []replayTxn
	for _, j := range fs.journals {
		// Pass over the whole area: collect descriptors (with the metadata
		// block that immediately follows each) and commit records, then
		// pair them by transaction ID. Commit records may be laid out
		// adjacent to their descriptor (RioFS/HoraeFS) or batched after a
		// group's metadata (JBD2).
		type openTxn struct {
			id       uint64
			nDirents int
			meta     []byte
		}
		descs := map[uint64]*openTxn{}
		commits := map[uint64]bool{}
		var pending *openTxn
		for blk := uint64(0); blk < j.size; blk++ {
			recs := in.Read(p, j.base+blk, 1)
			if len(recs) != 1 || recs[0].Data == nil {
				pending = nil
				continue
			}
			data := recs[0].Data
			if id, gen, _, nd, ok := decodeDescBlock(data); ok {
				if gen == j.gen {
					pending = &openTxn{id: id, nDirents: nd}
					descs[id] = pending
				} else {
					pending = nil
				}
				continue
			}
			if id, gen, ok := decodeCommitBlock(data); ok {
				if gen == j.gen {
					commits[id] = true
				}
				pending = nil
				continue
			}
			if pending != nil && pending.meta == nil {
				pending.meta = data
			}
			pending = nil
		}
		for id, d := range descs {
			if !commits[id] {
				st.Incomplete++
				continue
			}
			inodeBytes, dirents, ok := decodeMetaBlock(d.meta, d.nDirents)
			if !ok {
				st.Incomplete++
				continue
			}
			committed = append(committed, replayTxn{
				id: id, inode: append([]byte(nil), inodeBytes...), dirents: dirents,
			})
		}
		// The journal area continues from a fresh generation.
		j.gen++
		j.tail = 0
	}
	sort.Slice(committed, func(a, b int) bool { return committed[a].id < committed[b].id })
	for _, t := range committed {
		st.Committed++
		if len(t.inode) > 0 {
			if in, ok := decodeInode(t.inode); ok {
				fs.inodes[in.Ino] = in
				if in.IsDir && fs.dirs[in.Ino] == nil {
					fs.dirs[in.Ino] = map[string]uint64{}
				}
			}
		}
		for _, d := range t.dirents {
			if fs.dirs[d.Dir] == nil {
				fs.dirs[d.Dir] = map[string]uint64{}
			}
			if d.Add {
				fs.dirs[d.Dir][d.Name] = d.Ino
			} else {
				delete(fs.dirs[d.Dir], d.Name)
				delete(fs.inodes, d.Ino)
			}
		}
		if t.id >= fs.nextTxnID {
			fs.nextTxnID = t.id
		}
	}

	// Allocator high-water mark from surviving inodes.
	for _, in := range fs.inodes {
		for _, e := range in.Extents {
			if end := e.Start + e.Blocks; end > fs.alloc.next {
				fs.alloc.next = end
			}
		}
	}
	if fs.alloc.next < fs.dataBase {
		fs.alloc.next = fs.dataBase
	}
	for ino := range fs.inodes {
		if ino >= fs.nextIno {
			fs.nextIno = ino + 1
		}
	}
	st.InodesAlive = len(fs.inodes)
	return fs, st
}

func (fs *FS) loadDirHome(p *sim.Proc, dir uint64) {
	base := fs.dirHome(dir)
	var payload []byte
	for blk := uint64(0); blk < dirHomeBlocks; blk++ {
		recs := fs.in.Read(p, base+blk, 1)
		if len(recs) != 1 || recs[0].Data == nil {
			break
		}
		payload = append(payload, recs[0].Data...)
	}
	if len(payload) == 0 {
		if fs.dirs[dir] == nil {
			fs.dirs[dir] = map[string]uint64{}
		}
		return
	}
	if ino, entries, ok := decodeDir(payload); ok && ino == dir {
		fs.dirs[dir] = entries
	} else if fs.dirs[dir] == nil {
		fs.dirs[dir] = map[string]uint64{}
	}
}
