// Package fs implements the file-system layer of the evaluation (§4.7,
// §6.3-6.4): an ext4-like file system with three interchangeable
// journaling designs sharing one codebase, exactly as the paper arranges
// its comparison:
//
//   - Ext4: a single JBD2-style journal; storage order comes from
//     synchronous transfer and device FLUSH commands on an orderless
//     stack.
//   - HoraeFS: per-core journals (iJournaling) with ordering from Horae's
//     synchronous control path (cluster ModeHorae).
//   - RioFS: the same per-core journals with ordering from Rio streams
//     (cluster ModeRio): D, JM and JC dispatch asynchronously and a
//     single rio_wait provides durability (Fig. 9).
//
// On-disk state is real: inodes, directories and journal records are
// encoded into block payloads and rebuilt from media during crash
// recovery; the crash tests power-cut the cluster and verify that
// committed transactions survive and uncommitted ones vanish atomically.
package fs

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stack"
)

// BlockSize mirrors the device block size.
const BlockSize = 4096

// Design selects the journaling design.
type Design int

const (
	Ext4 Design = iota
	HoraeFS
	RioFS
)

func (d Design) String() string {
	switch d {
	case Ext4:
		return "ext4"
	case HoraeFS:
		return "horaefs"
	default:
		return "riofs"
	}
}

// Options sizes the file system and places it on the logical volume.
// The zero value of a field selects the DefaultOptions value, mirroring
// rio.Options: fs.Open(in, fs.Options{Design: fs.RioFS}) is a working
// mount.
type Options struct {
	Design        Design
	Journals      int    // per-core journal count (1 for Ext4; 0 = 8)
	JournalBlocks uint64 // blocks per journal area (0 = 1 GB total)
	MaxInodes     uint64 // 0 = 1<<16
	DataBlocks    uint64 // 0 = 1<<21 (8 GB)

	// BaseLBA offsets the whole on-disk layout (superblock, journals,
	// inode and directory homes, data area) by this many volume blocks,
	// so several file systems — one per tenant/initiator — can share one
	// logical volume without colliding. Use Options.Blocks to stack
	// tenants: tenant i mounts at uint64(i) * opts.Blocks().
	BaseLBA uint64

	// ReadAhead overrides the initiator's sequential prefetch depth for
	// this mount's reads: 0 inherits the cluster default, negative
	// disables read-ahead for this tenant. Only meaningful when the
	// cluster runs with a read cache (rio.ReadOptions.CacheBlocks > 0).
	ReadAhead int
}

// withDefaults fills zero fields with the DefaultOptions values.
func (o Options) withDefaults() Options {
	if o.Journals == 0 {
		o.Journals = 8
	}
	if o.Design == Ext4 {
		o.Journals = 1
	}
	if o.JournalBlocks == 0 {
		o.JournalBlocks = uint64(1<<30/BlockSize) / uint64(o.Journals)
	}
	if o.MaxInodes == 0 {
		o.MaxInodes = 1 << 16
	}
	if o.DataBlocks == 0 {
		o.DataBlocks = 1 << 21 // 8 GB
	}
	return o
}

// Blocks returns the total volume footprint of a file system mounted
// with these options: superblock, journal areas, inode and directory
// home regions, and the data area. Tenant i of a shared volume mounts at
// BaseLBA = uint64(i) * opts.Blocks().
func (o Options) Blocks() uint64 {
	o = o.withDefaults()
	return 1 + uint64(o.Journals)*o.JournalBlocks + o.MaxInodes +
		maxDirs*dirHomeBlocks + o.DataBlocks
}

// DefaultOptions matches the evaluation setup: 1 GB journal space total.
func DefaultOptions(design Design, journals int) Options {
	if design == Ext4 {
		journals = 1
	}
	total := uint64(1 << 30 / BlockSize) // 1 GB of journal space overall
	return Options{
		Design:        design,
		Journals:      journals,
		JournalBlocks: total / uint64(journals),
		MaxInodes:     1 << 16,
		DataBlocks:    1 << 21, // 8 GB
	}
}

// Inode numbers: 1 is the root directory.
const rootIno = 1

type inode struct {
	Ino     uint64
	Size    uint64
	IsDir   bool
	Nlink   uint32
	Extents []extent // data block runs (logical volume addresses)
	dirty   bool
}

type extent struct {
	Start  uint64
	Blocks uint64
}

func (in *inode) blocks() uint64 {
	var n uint64
	for _, e := range in.Extents {
		n += e.Blocks
	}
	return n
}

// File is an open file handle.
type File struct {
	ino *inode
	fs  *FS
	// dirtyData tracks un-fsynced data block writes: volume LBA -> stamp.
	dirtyData  []dirtyBlock
	parent     uint64 // directory inode (journaled with file-level txns)
	name       string
	dirDirty   bool // creation/rename not yet journaled
	inodeDirty bool
}

type dirtyBlock struct {
	lba   uint64
	stamp uint64
	ipu   bool
}

// FsyncTrace records the phase breakdown of one fsync (Fig. 14).
type FsyncTrace struct {
	DDispatch  sim.Time // dispatching user data blocks
	JMDispatch sim.Time // dispatching journaled metadata
	JCDispatch sim.Time // dispatching the commit record
	WaitIO     sim.Time // waiting for I/O (and FLUSH where applicable)
	Total      sim.Time
}

// Stats aggregates file-system counters.
type Stats struct {
	Fsyncs      int64
	Creates     int64
	Unlinks     int64
	Appends     int64
	Checkpoints int64
	ReuseFlush  int64 // FLUSH fallbacks for block reuse (§4.4.2)
	Commits     int64
}

// FS is the mounted file system. It is bound to ONE initiator server:
// every journal stream, data write, read and CPU charge runs in that
// initiator's ordering domain, so per-tenant file systems on different
// initiators never share sequencer state, submission shards or crash
// epochs.
type FS struct {
	in  *stack.Initiator
	cfg Options

	// Layout (logical volume block addresses).
	superLBA  uint64
	journal0  uint64 // first journal block
	inodeBase uint64
	dataBase  uint64

	inodes   map[uint64]*inode
	dirs     map[uint64]map[string]uint64 // dir ino -> name -> ino
	dirDirty map[uint64]bool
	nextIno  uint64

	alloc          *allocator
	journals       []*journalArea
	stamp          uint64
	nextTxnID      uint64
	stats          Stats
	closed         bool
	LastTrace      FsyncTrace
	TraceHook      func(FsyncTrace)
	inodeOfLBA     map[uint64]uint64
	pendingUnlinks map[uint64][]direntOp
	pendingNewDirs map[uint64]direntOp // dir ino -> its unjournaled creation
}

// Open creates (formats) a file system bound to one initiator server.
// Zero-valued options select the DefaultOptions sizing; opts.BaseLBA
// places the layout so several tenants can share the volume.
func Open(in *stack.Initiator, opts Options) *FS {
	opts = opts.withDefaults()
	fs := &FS{
		in:             in,
		cfg:            opts,
		inodes:         map[uint64]*inode{},
		dirs:           map[uint64]map[string]uint64{},
		dirDirty:       map[uint64]bool{},
		nextIno:        rootIno + 1,
		inodeOfLBA:     map[uint64]uint64{},
		pendingUnlinks: map[uint64][]direntOp{},
		pendingNewDirs: map[uint64]direntOp{},
	}
	fs.superLBA = opts.BaseLBA
	fs.journal0 = fs.superLBA + 1
	fs.inodeBase = fs.journal0 + uint64(opts.Journals)*opts.JournalBlocks
	fs.dataBase = fs.inodeBase + opts.MaxInodes + maxDirs*dirHomeBlocks
	fs.alloc = newAllocator(fs.dataBase, opts.DataBlocks)
	for j := 0; j < opts.Journals; j++ {
		fs.journals = append(fs.journals, &journalArea{
			id:    j,
			base:  fs.journal0 + uint64(j)*opts.JournalBlocks,
			size:  opts.JournalBlocks,
			txns:  map[uint64]*txnRecord{},
			chkpt: sim.NewResource(in.Eng, 1),
		})
	}
	root := &inode{Ino: rootIno, IsDir: true, Nlink: 2}
	fs.inodes[rootIno] = root
	fs.dirs[rootIno] = map[string]uint64{}
	return fs
}

// Cluster returns the underlying storage cluster.
func (fs *FS) Cluster() *stack.Cluster { return fs.in.Cluster() }

// Initiator returns the initiator server this file system is bound to.
func (fs *FS) Initiator() *stack.Initiator { return fs.in }

// Eng returns the simulation engine (for spawning background work).
func (fs *FS) Eng() *sim.Engine { return fs.in.Eng }

// UseCPU charges application-level CPU work (key-value indexing,
// compaction) to the file system's initiator cores.
func (fs *FS) UseCPU(p *sim.Proc, d sim.Time) { fs.in.UseCPU(p, d) }

// Stats returns counters.
func (fs *FS) Stats() Stats { return fs.stats }

// Close ends the file-system lifecycle and returns the final counters.
// The simulated FS keeps no background daemons of its own (checkpoints
// run in caller context), so Close is a lifecycle marker: operations
// after Close panic, catching use-after-close in tenant teardown paths.
func (fs *FS) Close() Stats {
	fs.closed = true
	return fs.stats
}

// Options returns the resolved mount options.
func (fs *FS) Options() Options { return fs.cfg }

// Design returns the journaling design in use.
func (fs *FS) Design() Design { return fs.cfg.Design }

func (fs *FS) nextStamp() uint64 {
	fs.stamp++
	return fs.stamp<<8 | 0xF5
}

// journalFor picks the journal (and Rio stream) for a caller identified by
// core: per-core journaling for RioFS/HoraeFS, the single shared journal
// for Ext4.
func (fs *FS) journalFor(core int) *journalArea {
	return fs.journals[core%len(fs.journals)]
}

// splitPath returns (dir inode, leaf name). Only flat and one-level paths
// are needed by the workloads: "name" lives in root, "dir/name" in dir.
func (fs *FS) splitPath(path string) (uint64, string, error) {
	for i := 0; i < len(path); i++ {
		if path[i] == '/' {
			dirName, leaf := path[:i], path[i+1:]
			dirIno, ok := fs.dirs[rootIno][dirName]
			if !ok {
				return 0, "", fmt.Errorf("fs: no such directory %q", dirName)
			}
			return dirIno, leaf, nil
		}
	}
	return rootIno, path, nil
}

// Mkdir creates a directory under root.
func (fs *FS) Mkdir(p *sim.Proc, name string) error {
	if _, ok := fs.dirs[rootIno][name]; ok {
		return fmt.Errorf("fs: %q exists", name)
	}
	in := &inode{Ino: fs.nextIno, IsDir: true, Nlink: 2, dirty: true}
	fs.nextIno++
	fs.inodes[in.Ino] = in
	fs.dirs[in.Ino] = map[string]uint64{}
	fs.dirs[rootIno][name] = in.Ino
	fs.dirDirty[rootIno] = true
	// The directory's own creation rides in the first transaction that
	// journals anything under it.
	fs.pendingNewDirs[in.Ino] = direntOp{Dir: rootIno, Ino: in.Ino, Add: true, Name: name}
	return nil
}

// Create makes a new file. The creation is journaled at the next fsync.
func (fs *FS) Create(p *sim.Proc, path string) (*File, error) {
	dir, leaf, err := fs.splitPath(path)
	if err != nil {
		return nil, err
	}
	if _, ok := fs.dirs[dir][leaf]; ok {
		return nil, fmt.Errorf("fs: %q exists", path)
	}
	in := &inode{Ino: fs.nextIno, Nlink: 1, dirty: true}
	fs.nextIno++
	fs.inodes[in.Ino] = in
	fs.dirs[dir][leaf] = in.Ino
	fs.dirDirty[dir] = true
	fs.stats.Creates++
	return &File{ino: in, fs: fs, parent: dir, name: leaf, dirDirty: true, inodeDirty: true}, nil
}

// Open returns a handle to an existing file.
func (fs *FS) Open(p *sim.Proc, path string) (*File, error) {
	dir, leaf, err := fs.splitPath(path)
	if err != nil {
		return nil, err
	}
	ino, ok := fs.dirs[dir][leaf]
	if !ok {
		return nil, fmt.Errorf("fs: no such file %q", path)
	}
	return &File{ino: fs.inodes[ino], fs: fs, parent: dir, name: leaf}, nil
}

// Unlink removes a file; its blocks join the pending-reuse pool, which
// forces a FLUSH fallback if they are reallocated before a barrier
// (§4.4.2 block reuse).
func (fs *FS) Unlink(p *sim.Proc, path string) error {
	dir, leaf, err := fs.splitPath(path)
	if err != nil {
		return err
	}
	ino, ok := fs.dirs[dir][leaf]
	if !ok {
		return fmt.Errorf("fs: no such file %q", path)
	}
	in := fs.inodes[ino]
	for _, e := range in.Extents {
		fs.alloc.freeReuse(e.Start, e.Blocks)
	}
	delete(fs.inodes, ino)
	delete(fs.dirs[dir], leaf)
	fs.dirDirty[dir] = true
	fs.pendingUnlinks[dir] = append(fs.pendingUnlinks[dir],
		direntOp{Dir: dir, Ino: ino, Add: false, Name: leaf})
	fs.stats.Unlinks++
	return nil
}

// Append writes size bytes at the end of the file through the page cache;
// blocks are allocated out-of-place and dispatched at fsync.
func (fs *FS) Append(p *sim.Proc, f *File, size int) error {
	blocks := uint64((size + BlockSize - 1) / BlockSize)
	if blocks == 0 {
		blocks = 1
	}
	start, reused, err := fs.allocBlocks(p, f, blocks)
	if err != nil {
		return err
	}
	_ = reused
	for b := uint64(0); b < blocks; b++ {
		f.dirtyData = append(f.dirtyData, dirtyBlock{lba: start + b, stamp: fs.nextStamp()})
	}
	f.ino.Extents = appendExtent(f.ino.Extents, extent{Start: start, Blocks: blocks})
	f.ino.Size += uint64(size)
	f.ino.dirty = true
	f.inodeDirty = true
	fs.stats.Appends++
	return nil
}

// Overwrite rewrites size bytes at offset in place (IPU, §4.4.2).
func (fs *FS) Overwrite(p *sim.Proc, f *File, off uint64, size int) error {
	if off+uint64(size) > f.ino.blocks()*BlockSize {
		return fmt.Errorf("fs: overwrite beyond EOF")
	}
	first := off / BlockSize
	last := (off + uint64(size) - 1) / BlockSize
	for b := first; b <= last; b++ {
		lba, ok := f.ino.lbaOf(b)
		if !ok {
			return fmt.Errorf("fs: hole at block %d", b)
		}
		f.dirtyData = append(f.dirtyData, dirtyBlock{lba: lba, stamp: fs.nextStamp(), ipu: true})
	}
	f.ino.dirty = true
	f.inodeDirty = true
	return nil
}

func (in *inode) lbaOf(fileBlock uint64) (uint64, bool) {
	var seen uint64
	for _, e := range in.Extents {
		if fileBlock < seen+e.Blocks {
			return e.Start + (fileBlock - seen), true
		}
		seen += e.Blocks
	}
	return 0, false
}

// Read reads size bytes at off, charging device reads for blocks that are
// not dirty in the cache.
func (fs *FS) Read(p *sim.Proc, f *File, off uint64, size int) error {
	if f.ino.Size == 0 || size == 0 {
		return nil
	}
	first := off / BlockSize
	last := (off + uint64(size) - 1) / BlockSize
	for b := first; b <= last; b++ {
		lba, ok := f.ino.lbaOf(b)
		if !ok {
			break
		}
		if f.isDirty(lba) {
			continue // page-cache hit
		}
		// Stream 0 carries the mount's sequential-read detector: scans
		// walk files block-ascending, which is exactly the pattern the
		// initiator's read-ahead keys on.
		fs.in.ReadStreamAhead(p, 0, lba, 1, fs.cfg.ReadAhead)
	}
	return nil
}

func (f *File) isDirty(lba uint64) bool {
	for _, d := range f.dirtyData {
		if d.lba == lba {
			return true
		}
	}
	return false
}

// Size returns the file size in bytes.
func (f *File) Size() uint64 { return f.ino.Size }

// Ino returns the inode number.
func (f *File) Ino() uint64 { return f.ino.Ino }

// List returns the sorted names in a directory ("" or "/" for root).
func (fs *FS) List(p *sim.Proc, dir string) ([]string, error) {
	ino := uint64(rootIno)
	if dir != "" && dir != "/" {
		d, ok := fs.dirs[rootIno][dir]
		if !ok {
			return nil, fmt.Errorf("fs: no such directory %q", dir)
		}
		ino = d
	}
	entries := fs.dirs[ino]
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// allocBlocks grabs a run of data blocks, falling back to the classic
// FLUSH barrier when only previously-freed blocks are available.
func (fs *FS) allocBlocks(p *sim.Proc, f *File, blocks uint64) (uint64, bool, error) {
	start, reused, ok := fs.alloc.alloc(blocks)
	if !ok {
		return 0, false, fmt.Errorf("fs: out of space")
	}
	if reused {
		// §4.7: regress to a synchronous FLUSH so the prior owner's free
		// is durable before new data lands in the reused blocks.
		fs.stats.ReuseFlush++
		fs.in.FlushDevice(p, 0)
		fs.alloc.reuseBarrier()
	}
	for b := uint64(0); b < blocks; b++ {
		fs.inodeOfLBA[start+b] = f.ino.Ino
	}
	return start, reused, nil
}

func appendExtent(exts []extent, e extent) []extent {
	if n := len(exts); n > 0 && exts[n-1].Start+exts[n-1].Blocks == e.Start {
		exts[n-1].Blocks += e.Blocks
		return exts
	}
	return append(exts, e)
}

// allocator hands out data blocks; freed blocks stay quarantined until a
// barrier so block reuse can be detected.
type allocator struct {
	next      uint64
	end       uint64
	free      []uint64 // safe to reuse (post-barrier)
	quarantin []uint64 // freed since the last barrier
}

func newAllocator(base, blocks uint64) *allocator {
	return &allocator{next: base, end: base + blocks}
}

func (a *allocator) alloc(blocks uint64) (start uint64, reused, ok bool) {
	if a.next+blocks <= a.end {
		s := a.next
		a.next += blocks
		return s, false, true
	}
	// Fresh space exhausted: reuse quarantined/free blocks one at a time
	// (single-block allocations only in that regime).
	if blocks == 1 {
		if n := len(a.free); n > 0 {
			s := a.free[n-1]
			a.free = a.free[:n-1]
			return s, false, true
		}
		if n := len(a.quarantin); n > 0 {
			s := a.quarantin[n-1]
			a.quarantin = a.quarantin[:n-1]
			return s, true, true
		}
	}
	return 0, false, false
}

func (a *allocator) freeReuse(start, blocks uint64) {
	for b := uint64(0); b < blocks; b++ {
		a.quarantin = append(a.quarantin, start+b)
	}
}

// reuseBarrier promotes quarantined blocks after a FLUSH.
func (a *allocator) reuseBarrier() {
	a.free = append(a.free, a.quarantin...)
	a.quarantin = nil
}

// encodeInode serializes an inode into one block payload.
func encodeInode(in *inode) []byte {
	buf := make([]byte, 0, 64+16*len(in.Extents))
	var tmp [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(in.Ino)
	put(in.Size)
	flags := uint64(0)
	if in.IsDir {
		flags = 1
	}
	put(flags)
	put(uint64(in.Nlink))
	put(uint64(len(in.Extents)))
	for _, e := range in.Extents {
		put(e.Start)
		put(e.Blocks)
	}
	return buf
}

func decodeInode(b []byte) (*inode, bool) {
	if len(b) < 40 {
		return nil, false
	}
	g := func(i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }
	in := &inode{Ino: g(0), Size: g(1), IsDir: g(2) == 1, Nlink: uint32(g(3))}
	n := int(g(4))
	if len(b) < 40+16*n {
		return nil, false
	}
	for i := 0; i < n; i++ {
		in.Extents = append(in.Extents, extent{Start: g(5 + 2*i), Blocks: g(6 + 2*i)})
	}
	return in, true
}

// encodeDir serializes a directory map into one block payload.
func encodeDir(ino uint64, entries map[string]uint64) []byte {
	names := make([]string, 0, len(entries))
	for n := range entries {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 16+len(names)*40)
	var tmp [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	put(ino)
	put(uint64(len(names)))
	for _, n := range names {
		put(uint64(len(n)))
		buf = append(buf, n...)
		put(entries[n])
	}
	return buf
}

func decodeDir(b []byte) (uint64, map[string]uint64, bool) {
	if len(b) < 16 {
		return 0, nil, false
	}
	off := 0
	g := func() uint64 {
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v
	}
	ino := g()
	n := int(g())
	out := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		if off+8 > len(b) {
			return 0, nil, false
		}
		l := int(g())
		if off+l+8 > len(b) {
			return 0, nil, false
		}
		name := string(b[off : off+l])
		off += l
		out[name] = g()
	}
	return ino, out, true
}
