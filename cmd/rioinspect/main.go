// Command rioinspect is a debugging/education tool: it shows how Rio's
// ordering attributes are encoded into NVMe-oF command dwords (the paper's
// Table 1) and into 64-byte persistent PMR log entries, and it can dump
// the PMR log of a freshly exercised simulated cluster.
//
// Usage:
//
//	rioinspect -encode -stream 2 -seq 7 -lba 4096 -blocks 8
//	rioinspect -demo
package main

import (
	"flag"
	"fmt"

	"repro/internal/core"
	"repro/internal/nvmeof"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
)

func main() {
	var (
		encode  = flag.Bool("encode", false, "encode one attribute and dump the SQE dwords")
		demo    = flag.Bool("demo", false, "run a short workload and dump the per-initiator PMR log partitions")
		stream  = flag.Uint("stream", 0, "stream id")
		seq     = flag.Uint64("seq", 1, "group sequence number")
		lba     = flag.Uint64("lba", 0, "device LBA")
		blocks  = flag.Uint("blocks", 1, "blocks")
		flush   = flag.Bool("flush", false, "carry the durability barrier")
		initID  = flag.Uint("initiator", 0, "initiator id (ordering-domain namespace)")
		inits   = flag.Int("initiators", 2, "initiator servers in the -demo cluster")
		writeIt = flag.Bool("table", true, "print the Table-1 field map")
	)
	flag.Parse()

	if *encode {
		a := core.Attr{
			Initiator: uint16(*initID),
			Stream:    uint16(*stream), SeqStart: *seq, SeqEnd: *seq,
			Num: 1, ServerIdx: 1, LBA: *lba, Blocks: uint32(*blocks),
			Boundary: true, Flush: *flush,
		}
		c := nvmeof.RioWriteCommand(0, a)
		fmt.Printf("attribute: %s\n", a)
		for i, dw := range c {
			fmt.Printf("dword %02d: 0x%08X\n", i, dw)
		}
		if *writeIt {
			fmt.Println()
			fmt.Println("Table 1 mapping (paper, plus this repo's multi-initiator extension):")
			fmt.Printf("  00:10-13 rio opcode      = %d\n", c.RioOp())
			fmt.Printf("  02:00-31 start sequence  = %d\n", c[2])
			fmt.Printf("  03:00-31 end sequence    = %d\n", c[3])
			fmt.Printf("  04:00-31 previous group  = %d\n", c[4])
			fmt.Printf("  05:00-15 num requests    = %d\n", c[5]&0xffff)
			fmt.Printf("  05:16-31 stream id       = %d\n", c[5]>>16)
			fmt.Printf("  06:00-31 initiator id    = %d (reserved dword: namespaces the ordering domain)\n", c[6])
			fmt.Printf("  12:16-19 special flags   = 0x%X\n", (c[12]>>16)&0xf)
		}
		return
	}

	if *demo {
		eng := sim.New(1)
		cfg := stack.DefaultConfig(stack.ModeRio,
			stack.TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig()}})
		cfg.Initiators = *inits
		cfg.Streams = 2
		cfg.QPs = 2
		c := stack.New(eng, cfg)
		for ii := 0; ii < c.Initiators(); ii++ {
			ii := ii
			eng.Go(fmt.Sprintf("app%d", ii), func(p *sim.Proc) {
				in := c.Init(ii)
				for s := 0; s < 2; s++ {
					for g := 0; g < 4; g++ {
						base := uint64(ii)<<20 | uint64(s*100+g*3)
						in.OrderedWrite(p, s, base, 2, 0, nil, false, false, false)
						r := in.OrderedWrite(p, s, base+2, 1, 0, nil, true, g == 3, false)
						in.Wait(p, r)
					}
				}
			})
		}
		eng.Run()
		// The PMR region is partitioned per initiator: each ordering
		// domain appends, retires and recovers independently, so the dump
		// walks the partitions, not one undivided log.
		for ii := 0; ii < c.Initiators(); ii++ {
			part := c.Target(0).PMRPartition(ii)
			entries := core.ScanRegion(part)
			fmt.Printf("PMR partition of initiator %d on target 0 (%d entry slots, %d live entries):\n",
				ii, len(part)/core.EntrySize, len(entries))
			for _, e := range entries {
				fmt.Printf("  %-44s persist=%v flush=%v boundary=%v num=%d\n",
					e.Attr, e.Persist, e.Flush, e.Boundary, e.Num)
			}
		}
		eng.Shutdown()
		return
	}

	flag.Usage()
}
