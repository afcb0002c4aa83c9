// Object store: a BlueStore-flavored transactional store built directly
// on the ordered block device through rio stream handles (§4.6 —
// "applications that are built atop the block device can also use Rio to
// accelerate on-disk transactions"), here on the modern topology: one
// store per initiator server, both serving concurrently over a
// 2-way-replicated target set.
//
// Each PUT is an on-disk transaction: data extents (one group), an object
// metadata block (own group), and a commit record carrying the FLUSH —
// all submitted asynchronously, each write's handle queued in submission
// order, with one barrier at the end. Storage order guarantees the commit
// record can never be durable before the data it describes — per replica,
// on every in-sync member.
//
// Run: go run ./examples/objectstore
package main

import (
	"fmt"

	"repro/rio"
)

const (
	serverRegion = uint64(1) << 23 // volume blocks reserved per store
	dataOff      = uint64(1) << 16 // data extents start above the object table
)

type store struct {
	stream   *rio.Stream
	inflight []*rio.Handle // unharvested writes, in submission order
	metaBase uint64
	dataBase uint64
	nextData uint64
	objects  map[string]uint64 // name -> data extent start
	txns     int
}

func (s *store) put(name string, blocks uint32) {
	ext := s.dataBase + s.nextData
	s.nextData += uint64(blocks)
	slot := uint64(len(s.objects))
	// Transaction: data group, then metadata group, then commit+FLUSH.
	for off := uint32(0); off < blocks; off += 16 {
		n := blocks - off
		if n > 16 {
			n = 16
		}
		if off+n >= blocks {
			s.submit(s.stream.Close(ext+uint64(off), n))
		} else {
			s.submit(s.stream.Write(ext+uint64(off), n))
		}
	}
	s.submit(s.stream.Close(s.metaBase+2+slot, 1))
	s.submit(s.stream.Commit(s.metaBase, 1))
	s.objects[name] = ext
	s.txns++
}

func (s *store) submit(h *rio.Handle) { s.inflight = append(s.inflight, h) }

// harvest waits until the n oldest writes completed and returns every
// completed write from the front of the queue. Rio completes in storage
// order, so the completed writes are always a prefix of it.
func (s *store) harvest(n int) []*rio.Handle {
	n = min(n, len(s.inflight))
	if n == 0 {
		return nil
	}
	s.inflight[n-1].Wait()
	k := 0
	for k < len(s.inflight) && s.inflight[k].Done() {
		k++
	}
	done := s.inflight[:k:k]
	s.inflight = s.inflight[k:]
	return done
}

func main() {
	const servers = 2
	c := rio.NewCluster(rio.Options{
		Seed:       9,
		Initiators: servers,
		Targets: []rio.TargetSpec{
			{SSDs: []rio.DeviceClass{rio.Optane}}, {SSDs: []rio.DeviceClass{rio.Optane}},
		},
		Replicas: 2,
	})
	defer c.Close()

	for srv := 0; srv < servers; srv++ {
		srv := srv
		c.GoOn(srv, func(ctx *rio.Ctx) {
			base := uint64(srv) * serverRegion
			s := &store{
				stream:   ctx.Stream(0),
				metaBase: base,
				dataBase: base + dataOff,
				objects:  map[string]uint64{},
			}
			start := ctx.Now()
			const objects = 100
			for i := 0; i < objects; i++ {
				s.put(fmt.Sprintf("obj-%04d", i), 32) // 128 KB objects
				if len(s.inflight) > 192 {
					s.harvest(64) // keep the pipe full, harvest in order
				}
			}
			done := s.harvest(len(s.inflight))
			el := ctx.Now() - start
			fmt.Printf("store %d (initiator %d): %d transactions in %v — %.0f txns/s, %.2f GB/s payload\n",
				srv, ctx.Initiator(), s.txns, el,
				float64(objects)/el.Seconds(), float64(objects)*32*4096/1e9/el.Seconds())

			// Harvesting runs in storage order: the commit of txn k is never
			// seen before the commits of txns < k.
			fmt.Printf("store %d: in-order harvesting, last completion group = %d\n",
				srv, lastGroup(done))
		})
	}
	c.Run()
}

func lastGroup(done []*rio.Handle) uint64 {
	if len(done) == 0 {
		return 0
	}
	return done[len(done)-1].Attr().SeqStart
}
