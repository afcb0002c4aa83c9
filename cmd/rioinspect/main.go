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
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/nvmeof"
	"repro/internal/sim"
	"repro/internal/stack"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fl := flag.NewFlagSet("rioinspect", flag.ContinueOnError)
	var (
		encode  = fl.Bool("encode", false, "encode one attribute and dump the SQE dwords")
		demo    = fl.Bool("demo", false, "run a short workload and dump the per-initiator PMR log partitions")
		stream  = fl.Uint("stream", 0, "stream id")
		seq     = fl.Uint64("seq", 1, "group sequence number")
		lba     = fl.Uint64("lba", 0, "device LBA")
		blocks  = fl.Uint("blocks", 1, "blocks")
		flush   = fl.Bool("flush", false, "carry the durability barrier")
		initID  = fl.Uint("initiator", 0, "initiator id (ordering-domain namespace)")
		inits   = fl.Int("initiators", 2, "initiator servers in the -demo cluster")
		writeIt = fl.Bool("table", true, "print the Table-1 field map")
	)
	if fl.Parse(args) != nil {
		return 2
	}

	if *encode {
		a := core.Attr{
			Initiator: uint16(*initID),
			Stream:    uint16(*stream), SeqStart: *seq, SeqEnd: *seq,
			Num: 1, ServerIdx: 1, LBA: *lba, Blocks: uint32(*blocks),
			Boundary: true, Flush: *flush,
		}
		c := nvmeof.RioWriteCommand(0, a)
		fmt.Fprintf(out, "attribute: %s\n", a)
		for i, dw := range c {
			fmt.Fprintf(out, "dword %02d: 0x%08X\n", i, dw)
		}
		if *writeIt {
			fmt.Fprintln(out)
			fmt.Fprintln(out, "Table 1 mapping (paper, plus this repo's multi-initiator extension):")
			fmt.Fprintf(out, "  00:10-13 rio opcode      = %d\n", c.RioOp())
			fmt.Fprintf(out, "  02:00-31 start sequence  = %d\n", c[2])
			fmt.Fprintf(out, "  03:00-31 end sequence    = %d\n", c[3])
			fmt.Fprintf(out, "  04:00-31 previous group  = %d\n", c[4])
			fmt.Fprintf(out, "  05:00-15 num requests    = %d\n", c[5]&0xffff)
			fmt.Fprintf(out, "  05:16-31 stream id       = %d\n", c[5]>>16)
			fmt.Fprintf(out, "  06:00-31 initiator id    = %d (reserved dword: namespaces the ordering domain)\n", c[6])
			fmt.Fprintf(out, "  12:16-19 special flags   = 0x%X\n", (c[12]>>16)&0xf)
		}
		return 0
	}

	if *demo {
		eng := sim.New(1)
		cfg := stack.DefaultConfig(stack.ModeRio, stack.OptaneTarget())
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
			fmt.Fprintf(out, "PMR partition of initiator %d on target 0 (%d entry slots, %d live entries):\n",
				ii, len(part)/core.EntrySize, len(entries))
			for _, e := range entries {
				fmt.Fprintf(out, "  %-44s persist=%v flush=%v boundary=%v num=%d\n",
					e.Attr, e.Persist, e.Flush, e.Boundary, e.Num)
			}
		}
		eng.Shutdown()
		return 0
	}

	fl.Usage()
	return 0
}
