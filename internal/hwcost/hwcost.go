// Package hwcost models the hardware implementation cost of the two random
// placement modules, reproducing the structure behind the paper's Table 1:
// ASIC area/delay of the RM and hRP index-generation logic for a 128-set
// cache, and FPGA occupancy / maximum frequency for a 4-core LEON3-class
// integration.
//
// The model is structural, not curve-fitted: each module is expanded into
// a standard-cell netlist that follows the paper's circuit descriptions
// (Figure 2: seed-controlled rotate blocks feeding an XOR cascade;
// Figure 3: a Benes network of pass-gate switches driven by one row of
// XOR gates), and area/delay are accumulated from a 45nm-class cell table.
// The absolute numbers therefore land near, not on, the paper's (their
// exact TSMC library is proprietary); the claims under test are the
// relations: ~an order of magnitude less area for RM, a ~25-30% delay
// reduction, no FPGA frequency degradation for RM versus a 100->80MHz drop
// for hRP, and a few-fold smaller occupancy delta.
package hwcost

import (
	"fmt"
	"math"

	"repro/internal/benes"
)

// Cell is one standard cell: silicon area and propagation delay.
type Cell struct {
	AreaUm2 float64
	DelayNs float64
}

// Library is a 45nm-class standard cell table.
type Library struct {
	Name  string
	INV   Cell
	NAND2 Cell
	XOR2  Cell
	MUX2  Cell
	DFF   Cell
	// TGate is a transmission-gate pass switch; its delay entry is the
	// per-stage contribution in an unbuffered pass-gate chain (RC grows
	// with chain length, so this is calibrated for the short Benes chains
	// of the RM module).
	TGate Cell
}

// Generic45 returns a generic 45nm-class library with open-literature cell
// values (Nangate-like areas, conservative delays).
func Generic45() Library {
	return Library{
		Name:  "generic-45nm",
		INV:   Cell{AreaUm2: 0.53, DelayNs: 0.015},
		NAND2: Cell{AreaUm2: 0.80, DelayNs: 0.020},
		XOR2:  Cell{AreaUm2: 1.60, DelayNs: 0.055},
		MUX2:  Cell{AreaUm2: 1.86, DelayNs: 0.050},
		DFF:   Cell{AreaUm2: 4.52, DelayNs: 0.100},
		TGate: Cell{AreaUm2: 0.70, DelayNs: 0.070},
	}
}

// Netlist is a bag of cells plus a critical path description.
type Netlist struct {
	Module string
	INV    int
	NAND2  int
	XOR2   int
	MUX2   int
	DFF    int
	TGate  int
	// Path is the critical path as stage counts per cell type.
	PathINV, PathXOR2, PathMUX2, PathTGate int
}

// Area returns the total cell area in um^2.
func (n Netlist) Area(lib Library) float64 {
	return float64(n.INV)*lib.INV.AreaUm2 +
		float64(n.NAND2)*lib.NAND2.AreaUm2 +
		float64(n.XOR2)*lib.XOR2.AreaUm2 +
		float64(n.MUX2)*lib.MUX2.AreaUm2 +
		float64(n.DFF)*lib.DFF.AreaUm2 +
		float64(n.TGate)*lib.TGate.AreaUm2
}

// Delay returns the critical-path delay in ns.
func (n Netlist) Delay(lib Library) float64 {
	return float64(n.PathINV)*lib.INV.DelayNs +
		float64(n.PathXOR2)*lib.XOR2.DelayNs +
		float64(n.PathMUX2)*lib.MUX2.DelayNs +
		float64(n.PathTGate)*lib.TGate.DelayNs
}

// LUTs returns an FPGA logic estimate: combinational cells pack two per
// ALUT on average (wide LUT inputs absorb small gates); flip-flops ride in
// the same ALMs and are not double-counted.
func (n Netlist) LUTs() int {
	comb := n.INV + n.NAND2 + n.XOR2 + n.MUX2 + n.TGate
	return (comb + 1) / 2
}

// log2ceil returns ceil(log2(x)) for x >= 1.
func log2ceil(x int) int {
	n := 0
	for 1<<uint(n) < x {
		n++
	}
	return n
}

// HRPModule builds the hash-based random placement netlist for a cache
// with indexBits of index hashed from addrBits of line address (paper
// Figure 2: one seed-controlled rotate block per index bit, each a full
// barrel rotator over the address word, followed by an XOR-cascade fold of
// each rotated word to one bit, combined with seed bits).
func HRPModule(addrBits, indexBits int) Netlist {
	rotStages := log2ceil(addrBits) // barrel rotator depth
	rotMux := addrBits * rotStages  // MUX2 per rotate block
	foldXor := addrBits - 1         // XOR fold word -> 1 bit
	n := Netlist{
		Module: fmt.Sprintf("hRP-%dx%d", addrBits, indexBits),
		MUX2:   indexBits * rotMux,
		XOR2:   indexBits*foldXor + indexBits, // folds + final seed XOR row
		DFF:    addrBits,                      // seed register
		INV:    2 * addrBits,                  // input/seed buffering
	}
	// Critical path: through one rotator, down the XOR fold tree, through
	// the seed-combination XOR.
	n.PathMUX2 = rotStages
	n.PathXOR2 = log2ceil(addrBits) + 1
	n.PathINV = 2
	return n
}

// RMModule builds the Random Modulo netlist for a cache with indexBits of
// index (paper Figure 3: a Benes network of pass-gate switches over the
// index bits; the control word is one XOR row combining upper address bits
// with the seed; a seed register holds the per-run seed).
func RMModule(indexBits int) Netlist {
	net := benes.MustNew(indexBits)
	switches := net.Switches()
	stages := 2*log2ceil(indexBits) - 1
	if indexBits == 1 {
		stages = 0
	}
	ctrl := switches // one XOR per control bit
	n := Netlist{
		Module: fmt.Sprintf("RM-%d", indexBits),
		TGate:  4 * switches, // a 2x2 pass-gate switch = 4 transmission gates
		XOR2:   ctrl,
		DFF:    ctrl + 1,         // seed register (control width + top bit)
		INV:    indexBits + ctrl, // index drivers + control buffers
	}
	// Critical path: the control XOR row resolves in parallel with index
	// arrival and feeds the first switch column; then the unbuffered
	// pass-gate chain.
	n.PathXOR2 = 1
	n.PathTGate = stages
	n.PathINV = 1
	return n
}

// ASICRow is one side of Table 1's ASIC half.
type ASICRow struct {
	Module  string
	AreaUm2 float64
	DelayNs float64
}

// ASICReport is the ASIC half of Table 1.
type ASICReport struct {
	RM, HRP   ASICRow
	AreaRatio float64 // hRP area / RM area (paper: ~10x)
	DelayGain float64 // 1 - RM delay / hRP delay (paper: ~27%)
}

// ASIC evaluates both modules for a cache with the given number of sets
// (128 in Table 1, "analogous to the instruction cache of the targeted
// processor") and address width.
func ASIC(lib Library, sets, addrBits int) ASICReport {
	idx := log2ceil(sets)
	rm := RMModule(idx)
	hrp := HRPModule(addrBits, idx)
	r := ASICReport{
		RM:  ASICRow{Module: rm.Module, AreaUm2: rm.Area(lib), DelayNs: rm.Delay(lib)},
		HRP: ASICRow{Module: hrp.Module, AreaUm2: hrp.Area(lib), DelayNs: hrp.Delay(lib)},
	}
	if r.RM.AreaUm2 > 0 {
		r.AreaRatio = r.HRP.AreaUm2 / r.RM.AreaUm2
	}
	if r.HRP.DelayNs > 0 {
		r.DelayGain = 1 - r.RM.DelayNs/r.HRP.DelayNs
	}
	return r
}

// FPGAParams describes the prototype integration (Stratix IV class).
type FPGAParams struct {
	DeviceALUTs        int     // logic capacity of the device
	BaselinePct        float64 // baseline design occupancy (paper: 70%)
	BaselineMHz        int     // baseline operating frequency (paper: 100)
	IndexPathSlackNs   float64 // timing slack available on the cache index path
	LUTLevelNs         float64 // delay per LUT level including routing
	PLLStepMHz         int     // frequency grid the prototype can target
	Cores              int     // core count (paper: 4)
	L1PerCore          int     // IL1 + DL1
	L2Banks            int     // per-core L2 partitions
	PortsPerCache      int     // index-generation instances per cache (CPU+snoop)
	PerCacheControlLUT int     // seed/flush management logic per cache
}

// DefaultFPGA returns the prototype parameters used for Table 1.
func DefaultFPGA() FPGAParams {
	return FPGAParams{
		DeviceALUTs:        182400, // EP4SGX230-class
		BaselinePct:        70,
		BaselineMHz:        100,
		IndexPathSlackNs:   1.8,
		LUTLevelNs:         0.55,
		PLLStepMHz:         10,
		Cores:              4,
		L1PerCore:          2,
		L2Banks:            4,
		PortsPerCache:      2,
		PerCacheControlLUT: 150,
	}
}

// FPGARow is one design point of Table 1's FPGA half.
type FPGARow struct {
	Design       string
	OccupancyPct float64
	FMHz         int
}

// FPGAReport is the FPGA half of Table 1.
type FPGAReport struct {
	Baseline, RM, HRP FPGARow
}

// lutDepth estimates LUT levels on the index path for a netlist: paired
// combinational stages pack two per LUT level (a LUT6 absorbs two 2-input
// stages), matching vendor synthesis of mux/xor cascades.
func lutDepth(n Netlist) int {
	stages := n.PathINV/2 + n.PathXOR2 + n.PathMUX2 + n.PathTGate
	return (stages + 1) / 2
}

// FPGA evaluates the full-system integration: the placement module is
// instantiated per cache port, the L1s use l1Sets and the L2 banks l2Sets.
func FPGA(p FPGAParams, l1Sets, l2Sets, addrBits int) FPGAReport {
	l1Idx, l2Idx := log2ceil(l1Sets), log2ceil(l2Sets)

	occupancy := func(l1n, l2n Netlist) float64 {
		caches := p.Cores*p.L1PerCore + p.L2Banks
		luts := p.Cores*p.L1PerCore*p.PortsPerCache*l1n.LUTs() +
			p.L2Banks*p.PortsPerCache*l2n.LUTs() +
			caches*p.PerCacheControlLUT
		return p.BaselinePct + 100*float64(luts)/float64(p.DeviceALUTs)
	}
	fmax := func(n Netlist) int {
		added := float64(lutDepth(n)) * p.LUTLevelNs
		cycle := 1000.0 / float64(p.BaselineMHz)
		if added <= p.IndexPathSlackNs {
			return p.BaselineMHz
		}
		newCycle := cycle - p.IndexPathSlackNs + added
		f := 1000.0 / newCycle
		return int(math.Floor(f/float64(p.PLLStepMHz))) * p.PLLStepMHz
	}

	rmL1, rmL2 := RMModule(l1Idx), RMModule(l2Idx)
	hrpL1, hrpL2 := HRPModule(addrBits, l1Idx), HRPModule(addrBits, l2Idx)

	return FPGAReport{
		Baseline: FPGARow{Design: "baseline (modulo)", OccupancyPct: p.BaselinePct, FMHz: p.BaselineMHz},
		RM:       FPGARow{Design: "RM all caches", OccupancyPct: occupancy(rmL1, rmL2), FMHz: fmax(rmL1)},
		HRP:      FPGARow{Design: "hRP all caches", OccupancyPct: occupancy(hrpL1, hrpL2), FMHz: fmax(hrpL1)},
	}
}
