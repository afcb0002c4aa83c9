// Package blockdev provides the block-layer building blocks shared by all
// four simulated stacks (Linux-ordered, Horae, Rio, orderless): the request
// structure, the striped logical volume that maps a flat LBA space onto the
// SSDs of one or more target servers (4 KB round-robin by default, as in
// §6.2.1), and wire-command fusion implementing the Rio I/O scheduler's
// request merging (§4.5, Fig. 8).
package blockdev

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Op is a block request opcode.
type Op uint8

const (
	OpWrite Op = iota
	OpRead
	OpFlush
)

// Request is one block I/O request as submitted by a file system or
// application (bio-like). For ordered requests, Ticket is attached by the
// Rio sequencer. Done fires when the completion is delivered to the
// submitter (for Rio: in storage order). A payload in Data must not be
// modified once the request is submitted: devices, replicas and the read
// cache keep references to it, not copies.
type Request struct {
	LBA     uint64 // logical volume address (blocks)
	Blocks  uint32
	Stamp   uint64   // write identity, used by crash-consistency checks
	Data    [][]byte // optional per-block payloads (file-system metadata)
	Stream  int
	Op      Op // packed with the flags below
	Ordered bool
	// Group delimiters (rio_submit flags).
	Boundary bool
	Flush    bool
	IPU      bool

	Ticket *core.Ticket
	Done   *sim.Signal

	// DispatchScratch is opaque per-request storage owned by the dispatch
	// layer: the stack tracks the wire commands carrying this request here
	// instead of in a global map, and clears it when the completion is
	// delivered.
	DispatchScratch any

	// HoraeIdx records, per target server (0: not touched), the index the
	// Horae control path persisted for this request, so the data path can
	// correlate its commands to the control entries.
	HoraeIdx []uint64

	// Timestamps for latency accounting.
	SubmitAt    sim.Time
	CompleteAt  sim.Time // hardware completion observed at initiator
	DeliverAt   sim.Time // completion delivered to the application
	SubmitSpent sim.Time // synchronous CPU time the submit call itself took

	// Trace is the stage-tracing span of a sampled request (nil for the
	// unsampled vast majority). TraceSeq is the span generation captured
	// at sampling time: every recorder passes it back, so a pointer that
	// outlives a crash epoch can never touch the recycled span's next
	// life. The block layer stores but never interprets either.
	Trace    *trace.Span
	TraceSeq uint64

	remaining int         // outstanding wire fragments
	ticket    core.Ticket // inline storage for Ticket (see TicketSlot)
	done      sim.Signal  // inline storage for Done (see InitDone)
	pins      int32       // wire commands listing the request (Pin, Unpin)
	released  bool        // by its owner (Release)
	free      bool        // reclaimed (Reclaim)
}

// InitDone points Done at the request's inline signal storage, so the
// completion signal is part of the request's own allocation.
func (r *Request) InitDone(e *sim.Engine) { r.Done = r.done.Init(e) }

// TicketSlot returns the request's inline ticket storage. The sequencer
// fills it via SubmitInto, so attaching an ordering ticket costs no
// separate allocation and the attribute stays readable for the whole
// lifetime of the request — pool reuse elsewhere can never clobber it.
func (r *Request) TicketSlot() *core.Ticket { return &r.ticket }

// InitFragments records how many wire commands must complete before the
// request is hardware-complete.
func (r *Request) InitFragments(n int) { r.remaining = n }

// FragmentDone reports one wire-command completion and returns true when
// the whole request is hardware-complete.
func (r *Request) FragmentDone() bool {
	r.remaining--
	if r.remaining < 0 {
		panic("blockdev: more fragment completions than fragments")
	}
	return r.remaining == 0
}

// Pin and Unpin count the wire commands that list the request.
func (r *Request) Pin()   { r.pins++ }
func (r *Request) Unpin() { r.pins-- }

// Release records that the request's owner will not look at it again.
// Releasing twice panics.
func (r *Request) Release() {
	if r.released {
		panic("blockdev: request released twice")
	}
	r.released = true
}

// Reclaim marks the request free, and returns true, the first time it is
// released, delivered (Done fired) and listed by no wire command: nothing
// reaches it any more, so its storage may be reused.
func (r *Request) Reclaim() bool {
	if r.free || !r.released || r.pins != 0 || !r.Done.Fired() {
		return false
	}
	r.free = true
	return true
}

// Free reports whether the request has been reclaimed.
func (r *Request) Free() bool { return r.free }

// DevRef locates one SSD within the cluster.
type DevRef struct {
	Server int // target server index
	SSD    int // device index within the server
	Blocks uint64
}

// Extent is a contiguous run of device blocks produced by volume mapping.
type Extent struct {
	Dev    int // index into the volume's device list
	DevLBA uint64
	Blocks uint32
	Offset uint32 // block offset within the original request
}

// Volume stripes a flat logical block space across devices with a fixed
// chunk size (in blocks). Chunk 1 reproduces the paper's 4 KB round-robin
// distribution.
type Volume struct {
	devs  []DevRef
	chunk uint64
}

// NewVolume builds a striped volume. chunkBlocks must be >= 1.
func NewVolume(devs []DevRef, chunkBlocks int) *Volume {
	if len(devs) == 0 || chunkBlocks < 1 {
		panic("blockdev: invalid volume geometry")
	}
	return &Volume{devs: devs, chunk: uint64(chunkBlocks)}
}

// Devices returns the number of devices in the volume.
func (v *Volume) Devices() int { return len(v.devs) }

// Dev returns the device reference at index i.
func (v *Volume) Dev(i int) DevRef { return v.devs[i] }

// Blocks returns the total logical capacity in blocks.
func (v *Volume) Blocks() uint64 {
	var n uint64
	for _, d := range v.devs {
		n += d.Blocks
	}
	return n
}

// Map translates one logical block address.
func (v *Volume) Map(lba uint64) (dev int, devLBA uint64) {
	c := lba / v.chunk
	off := lba % v.chunk
	dev = int(c % uint64(len(v.devs)))
	devLBA = (c/uint64(len(v.devs)))*v.chunk + off
	return dev, devLBA
}

// Extents splits [lba, lba+blocks) into per-device contiguous runs, in
// request order. Consecutive chunks that land on the same device at
// adjacent device addresses coalesce into one extent.
func (v *Volume) Extents(lba uint64, blocks uint32) []Extent {
	return v.AppendExtents(nil, lba, blocks)
}

// AppendExtents is Extents appending to out (caller scratch): the
// coalescing looks only at the extents of this call.
func (v *Volume) AppendExtents(out []Extent, lba uint64, blocks uint32) []Extent {
	first := len(out)
	off := uint32(0)
	for blocks > 0 {
		dev, devLBA := v.Map(lba)
		inChunk := v.chunk - lba%v.chunk
		n := uint32(inChunk)
		if n > blocks {
			n = blocks
		}
		if k := len(out) - 1; k >= first && out[k].Dev == dev &&
			out[k].DevLBA+uint64(out[k].Blocks) == devLBA {
			out[k].Blocks += n
		} else {
			out = append(out, Extent{Dev: dev, DevLBA: devLBA, Blocks: n, Offset: off})
		}
		lba += uint64(n)
		off += n
		blocks -= n
	}
	return out
}

// WireCmd is one NVMe-oF command bound for one device: either a plain
// write/flush or an ordered write carrying a (possibly fused) ordering
// attribute. Reqs lists the origin requests whose completion depends on it.
type WireCmd struct {
	Dev     int
	LBA     uint64 // device LBA
	Blocks  uint32
	Flush   bool // dedicated flush command (Blocks == 0)
	Ordered bool
	Attr    core.Attr
	Stamps  []uint64
	Data    [][]byte
	Reqs    []*Request
}

// InlineBytes returns the payload bytes carried in-capsule.
func (w *WireCmd) InlineBytes(threshold int) int {
	n := int(w.Blocks) * 4096
	if n <= threshold {
		return n
	}
	return 0
}

// PayloadBytes returns total data bytes of the command.
func (w *WireCmd) PayloadBytes() int { return int(w.Blocks) * 4096 }

// Fuse merges b into a when both are writes (not flushes) to the same
// device, b starts where a ends, and the fused command stays within
// maxBlocks: a absorbs b's blocks, stamps, payload and origin requests.
// It ignores ordering attributes; TryFuse is the ordered rule on top.
func Fuse(a, b *WireCmd, maxBlocks int) bool {
	if a.Dev != b.Dev || a.Flush || b.Flush {
		return false
	}
	if int(a.Blocks+b.Blocks) > maxBlocks {
		return false
	}
	if a.LBA+uint64(a.Blocks) != b.LBA {
		return false // device-level contiguity
	}
	a.Blocks += b.Blocks
	a.Stamps = append(a.Stamps, b.Stamps...)
	if a.Data != nil || b.Data != nil {
		if a.Data == nil {
			a.Data = make([][]byte, len(a.Stamps)-len(b.Stamps))
		}
		if b.Data == nil {
			b.Data = make([][]byte, len(b.Stamps))
		}
		a.Data = append(a.Data, b.Data...)
	}
	a.Reqs = append(a.Reqs, b.Reqs...)
	return true
}

// TryFuse merges b into a per the Rio I/O scheduler rules: both ordered,
// attribute-level mergeable (§4.5 requirements), and Fuse-able. On
// success a also carries the merged attribute (Fig. 8a).
func TryFuse(a, b *WireCmd, maxBlocks int) bool {
	if !a.Ordered || !b.Ordered || !core.CanMerge(a.Attr, b.Attr) || !Fuse(a, b, maxBlocks) {
		return false
	}
	a.Attr = core.Merge(a.Attr, b.Attr)
	return true
}

// FuseRun applies TryFuse left-to-right over a dispatch batch, preserving
// order: the scheduler never reorders the ORDER queue (§4.5), it only
// compacts adjacent mergeable commands.
func FuseRun(cmds []*WireCmd, maxBlocks int) []*WireCmd {
	if len(cmds) < 2 {
		return cmds
	}
	out := cmds[:1]
	for _, c := range cmds[1:] {
		tail := out[len(out)-1]
		if TryFuse(tail, c, maxBlocks) {
			continue
		}
		out = append(out, c)
	}
	return out
}
