package main

import (
	"share/internal/nand"
)

// Adapter for internal/nand. Touches: nand.Geometry, nand.DefaultTiming,
// nand.New, Chip.Program, Chip.Read, Chip.EraseBlock, nand.OOB; and,
// through ssd.Stats.Chip, the counters Programs, Reads, Erases.

// nandMetrics reports the chip's share of a window from device counters.
// Die and channel occupancy only exist on die-scheduled devices.
func nandMetrics(m metricSet, c devCounters, ops int64, windowNs int64) {
	m["nand.programs_per_op"] = ratio(float64(c.programs), float64(ops))
	m["nand.reads_per_op"] = ratio(float64(c.nandReads), float64(ops))
	m["nand.erases_per_kop"] = ratio(float64(c.erases)*1000, float64(ops))
	if len(c.dieBusy) == 0 {
		return
	}
	var sum, max int64
	for _, b := range c.dieBusy {
		sum += b
		if b > max {
			max = b
		}
	}
	mean := float64(sum) / float64(len(c.dieBusy))
	m["nand.die_busy_frac"] = ratio(mean, float64(windowNs))
	m["nand.die_busy_skew"] = ratio(float64(max), mean)
	var ch int64
	for _, b := range c.chanBusy {
		ch += b
	}
	m["nand.channel_busy_frac"] = ratio(float64(ch)/float64(len(c.chanBusy)), float64(windowNs))
}

// probeNand drives a bare chip: program every page of a small array in
// order, read them back in a scattered order, erase, repeat.
func probeNand(rc *runCtx, m metricSet) error {
	geo := nand.Geometry{PageSize: 4096, PagesPerBlock: 128, Blocks: rc.probeOps(80)}
	chip, err := nand.New(geo, nand.DefaultTiming())
	if err != nil {
		return err
	}
	pages := geo.Blocks * geo.PagesPerBlock
	buf := make([]byte, geo.PageSize)
	var fe errTally
	keep := fe.keep
	var prog, read []float64
	for round := 0; round < 5; round++ {
		prog = append(prog, nsPerOp(pages, func(i int) {
			buf[0] = byte(i)
			_, err := chip.Program(uint32(i), buf, nand.OOB{LPN: uint32(i)})
			keep(err)
		}))
		read = append(read, nsPerOp(pages, func(i int) {
			_, _, err := chip.Read(uint32(i*2654435761)%uint32(pages), buf)
			keep(err)
		}))
		for b := 0; b < geo.Blocks; b++ {
			_, err := chip.EraseBlock(b)
			keep(err)
		}
	}
	m["nand.program_wall_ns"] = median(prog)
	m["nand.read_wall_ns"] = median(read)
	return fe.err
}
