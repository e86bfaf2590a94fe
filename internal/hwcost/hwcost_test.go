package hwcost

import (
	"testing"
)

func TestASICRelationsTable1(t *testing.T) {
	// Table 1, ASIC half (128-set cache): RM needs ~10x less area than hRP
	// and ~27% less delay. The structural model must land in the same
	// regime: area ratio well above 5x, delay reduction 15-40%.
	rep := ASIC(Generic45(), 128, 27)
	t.Logf("RM : %8.1f um2  %.3f ns", rep.RM.AreaUm2, rep.RM.DelayNs)
	t.Logf("hRP: %8.1f um2  %.3f ns", rep.HRP.AreaUm2, rep.HRP.DelayNs)
	t.Logf("area ratio %.1fx, delay gain %.0f%%", rep.AreaRatio, 100*rep.DelayGain)

	if rep.AreaRatio < 5 {
		t.Errorf("area ratio %.1fx, paper reports ~10x", rep.AreaRatio)
	}
	if rep.DelayGain < 0.15 || rep.DelayGain > 0.45 {
		t.Errorf("delay gain %.0f%%, paper reports ~27%%", 100*rep.DelayGain)
	}
	// Sanity on absolute scales: same order of magnitude as Table 1
	// (RM 336.6 um2 / 0.46ns, hRP 3514.7 um2 / 0.59ns).
	if rep.RM.AreaUm2 < 50 || rep.RM.AreaUm2 > 1500 {
		t.Errorf("RM area %.1f um2 out of plausible range", rep.RM.AreaUm2)
	}
	if rep.HRP.AreaUm2 < 1000 || rep.HRP.AreaUm2 > 10000 {
		t.Errorf("hRP area %.1f um2 out of plausible range", rep.HRP.AreaUm2)
	}
	if rep.RM.DelayNs < 0.1 || rep.RM.DelayNs > 1.0 {
		t.Errorf("RM delay %.3f ns out of plausible range", rep.RM.DelayNs)
	}
	if rep.HRP.DelayNs < 0.3 || rep.HRP.DelayNs > 1.5 {
		t.Errorf("hRP delay %.3f ns out of plausible range", rep.HRP.DelayNs)
	}
}

func TestFPGARelationsTable1(t *testing.T) {
	// Table 1, FPGA half: baseline 70% @ 100MHz; RM 72% @ 100MHz; hRP 80%
	// @ 80MHz. Model must keep RM at the baseline frequency with a small
	// occupancy delta, and degrade hRP's frequency with a larger delta.
	rep := FPGA(DefaultFPGA(), 128, 1024, 27)
	t.Logf("baseline: %5.1f%% @ %dMHz", rep.Baseline.OccupancyPct, rep.Baseline.FMHz)
	t.Logf("RM      : %5.1f%% @ %dMHz", rep.RM.OccupancyPct, rep.RM.FMHz)
	t.Logf("hRP     : %5.1f%% @ %dMHz", rep.HRP.OccupancyPct, rep.HRP.FMHz)

	if rep.RM.FMHz != rep.Baseline.FMHz {
		t.Errorf("RM degraded frequency to %dMHz (paper: no degradation)", rep.RM.FMHz)
	}
	if rep.HRP.FMHz >= rep.Baseline.FMHz {
		t.Errorf("hRP did not degrade frequency (paper: 100 -> 80MHz)")
	}
	dRM := rep.RM.OccupancyPct - rep.Baseline.OccupancyPct
	dHRP := rep.HRP.OccupancyPct - rep.Baseline.OccupancyPct
	if dRM <= 0 || dHRP <= 0 {
		t.Fatalf("occupancy deltas not positive: RM %+.1f, hRP %+.1f", dRM, dHRP)
	}
	if dRM*2 > dHRP {
		t.Errorf("hRP occupancy delta (%.1fpp) not clearly larger than RM's (%.1fpp)", dHRP, dRM)
	}
	if dRM > 5 {
		t.Errorf("RM occupancy delta %.1fpp, paper reports ~2pp", dRM)
	}
}

func TestNetlistAccounting(t *testing.T) {
	lib := Generic45()
	n := Netlist{XOR2: 10, MUX2: 5, DFF: 2, PathXOR2: 3}
	wantArea := 10*lib.XOR2.AreaUm2 + 5*lib.MUX2.AreaUm2 + 2*lib.DFF.AreaUm2
	if n.Area(lib) != wantArea {
		t.Fatalf("area = %f, want %f", n.Area(lib), wantArea)
	}
	if n.Delay(lib) != 3*lib.XOR2.DelayNs {
		t.Fatalf("delay = %f", n.Delay(lib))
	}
	if n.LUTs() != 8 { // (10+5+1)/2 rounded up
		t.Fatalf("LUTs = %d", n.LUTs())
	}
}

func TestRMModuleScalesWithIndexWidth(t *testing.T) {
	lib := Generic45()
	small := RMModule(7)  // 128 sets (15 switches)
	large := RMModule(10) // 1024 sets (26 switches)
	if small.Area(lib) >= large.Area(lib) {
		t.Fatal("RM area does not grow with index width")
	}
	if small.TGate != 4*15 || large.TGate != 4*26 {
		t.Fatalf("switch counts wrong: %d, %d", small.TGate, large.TGate)
	}
}

func TestHRPModuleStructure(t *testing.T) {
	n := HRPModule(27, 7)
	// 7 rotate blocks, each a 27-wide 5-stage barrel rotator.
	if n.MUX2 != 7*27*5 {
		t.Fatalf("hRP MUX2 = %d, want %d", n.MUX2, 7*27*5)
	}
	// 7 fold trees of 26 XORs plus the final seed row.
	if n.XOR2 != 7*26+7 {
		t.Fatalf("hRP XOR2 = %d", n.XOR2)
	}
	if n.DFF != 27 {
		t.Fatalf("hRP seed register = %d bits", n.DFF)
	}
}

// TestModuloModuleIsFree: modulo indexing is wiring only, and a netlist
// without gates costs no area and no delay.
func TestModuloModuleIsFree(t *testing.T) {
	n := Netlist{Module: "modulo-7"}
	lib := Generic45()
	if n.Area(lib) != 0 || n.Delay(lib) != 0 {
		t.Fatal("modulo indexing must cost nothing (it is wiring)")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 27: 5, 128: 7, 1024: 10}
	for x, want := range cases {
		if got := log2ceil(x); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestASICDeeperCacheCostsMore(t *testing.T) {
	lib := Generic45()
	small := ASIC(lib, 128, 27)
	large := ASIC(lib, 1024, 27)
	if large.RM.AreaUm2 <= small.RM.AreaUm2 {
		t.Fatal("RM area must grow with set count")
	}
	if large.HRP.AreaUm2 <= small.HRP.AreaUm2 {
		t.Fatal("hRP area must grow with set count")
	}
}
