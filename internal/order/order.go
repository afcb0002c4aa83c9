// Package order is the ordering-domain engine: the single implementation
// of RIO's per-(initiator, stream, server) invariant machinery that the
// target driver, the replication layer and crash recovery all share.
//
// One Domain is one ordering domain as seen by one target server — a
// dense ServerIdx chain with an in-order submission gate (parked set),
// the PMR slot table for the domain's live ordering attributes, and the
// retire watermark that recycles them. An Engine bundles the domains of
// one target into dense per-initiator tables (streams and initiators are
// known at connect time, so the hot path indexes a slice instead of
// hashing a map key per command). Under replication every member target
// runs its own Engine — a replica set is N independent engine domains
// per stream — and the Quorum adapter accounts member acks on top;
// recovery drives the same domains from their persisted PMR entries
// (ScanPartition/MergeViews) instead of live traffic.
//
// The engine is hardware-independent, like internal/core: it operates on
// plain state transitions, and internal/stack charges simulated CPU and
// device time around the calls.
package order

// Policy describes how one of the four storage stacks drives the
// ordering engine. The stacks instantiate one policy each and the target
// driver consults it instead of switching on a mode enum, so the engine
// semantics live here, next to the state they govern.
type Policy interface {
	// Gated reports whether ordered commands pass the in-order
	// submission gate, persisting their attribute chain at submit (Rio's
	// §4.3.1 mechanism).
	Gated() bool
	// ControlPersisted reports whether ordering metadata was persisted by
	// a synchronous control path before data dispatch (Horae): data
	// commands then look up their pre-persisted slot instead of appending.
	ControlPersisted() bool
	// Tracked reports whether completions maintain persist bits in the
	// PMR log (Rio and Horae; the other stacks keep no ordering state).
	Tracked() bool
	// CertifyPeers reports whether a device FLUSH certifies every
	// unflushed slot on the device across ordering domains (Horae's
	// shared unflushed lists mix initiators per SSD).
	CertifyPeers() bool
}

// Orderless is plain NVMe over RDMA: no gate, no attributes, no persist
// tracking.
type Orderless struct{}

func (Orderless) Gated() bool            { return false }
func (Orderless) ControlPersisted() bool { return false }
func (Orderless) Tracked() bool          { return false }
func (Orderless) CertifyPeers() bool     { return false }

// LinuxOrdered is the classic synchronous ordered path: ordering comes
// from one-in-flight submission plus explicit FLUSH commands, so the
// engine sees it exactly like the orderless stack (no target-side state).
type LinuxOrdered struct{}

func (LinuxOrdered) Gated() bool            { return false }
func (LinuxOrdered) ControlPersisted() bool { return false }
func (LinuxOrdered) Tracked() bool          { return false }
func (LinuxOrdered) CertifyPeers() bool     { return false }

// Horae persists ordering metadata on a synchronous control path before
// the asynchronous data path; data commands correlate to the
// pre-persisted slots, and a device FLUSH certifies unflushed slots of
// every domain on the device.
type Horae struct{}

func (Horae) Gated() bool            { return false }
func (Horae) ControlPersisted() bool { return true }
func (Horae) Tracked() bool          { return true }
func (Horae) CertifyPeers() bool     { return true }

// Rio carries ordering attributes with the requests: the target enforces
// the dense-chain in-order gate, persists the attribute at submit and
// toggles persist bits at completion.
type Rio struct{}

func (Rio) Gated() bool            { return true }
func (Rio) ControlPersisted() bool { return false }
func (Rio) Tracked() bool          { return true }
func (Rio) CertifyPeers() bool     { return false }
