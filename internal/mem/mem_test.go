package mem

import (
	"testing"
	"testing/quick"
)

// TestTable2 checks every row of the paper's Table 2: memory access cycle
// counts for the default memory (180 ns read, 100 ns write, 120 ns recovery,
// one word per cycle) with four-word blocks across cycle times 20–60 ns.
func TestTable2(t *testing.T) {
	rows := []struct {
		cycleNs  int
		read     int
		write    int
		recovery int
	}{
		{20, 14, 10, 6},
		{24, 13, 10, 5},
		{28, 12, 9, 5},
		{32, 11, 9, 4},
		{36, 10, 8, 4},
		{40, 10, 8, 3},
		{48, 9, 8, 3},
		{52, 9, 7, 3},
		{60, 8, 7, 2},
	}
	cfg := DefaultConfig()
	const blockWords = 4
	for _, row := range rows {
		tm := cfg.MustQuantize(row.cycleNs)
		if got := tm.ReadCycles(blockWords); got != row.read {
			t.Errorf("cycle %dns: read cycles = %d, want %d", row.cycleNs, got, row.read)
		}
		if got := tm.WriteBusyCycles(blockWords); got != row.write {
			t.Errorf("cycle %dns: write cycles = %d, want %d", row.cycleNs, got, row.write)
		}
		if got := tm.RecoveryCycles; got != row.recovery {
			t.Errorf("cycle %dns: recovery cycles = %d, want %d", row.cycleNs, got, row.recovery)
		}
	}
}

func TestQuantizeDefaults(t *testing.T) {
	tm := DefaultConfig().MustQuantize(40)
	// "the latency becomes 1 + ceil(180ns/40ns) or 6 cycles"
	if tm.LatencyCycles != 6 {
		t.Errorf("latency = %d cycles, want 6", tm.LatencyCycles)
	}
	// "The transfer rate is one word per cycle, or four cycles for a block."
	if got := tm.TransferCycles(4); got != 4 {
		t.Errorf("transfer(4W) = %d cycles, want 4", got)
	}
}

func TestTransferRates(t *testing.T) {
	cases := []struct {
		rate  Rate
		words int
		want  int
	}{
		{Rate4PerCycle, 4, 1},
		{Rate4PerCycle, 1, 1}, // minimum one cycle
		{Rate4PerCycle, 16, 4},
		{Rate2PerCycle, 4, 2},
		{Rate1PerCycle, 4, 4},
		{Rate1Per2, 4, 8},
		{Rate1Per4, 4, 16},
		{Rate1Per4, 1, 4},
		{Rate4PerCycle, 5, 2}, // partial beat rounds up
	}
	for _, c := range cases {
		tm := Config{ReadNs: 180, WriteNs: 100, RecoverNs: 120, Transfer: c.rate}.MustQuantize(40)
		if got := tm.TransferCycles(c.words); got != c.want {
			t.Errorf("rate %v transfer(%dW) = %d, want %d", c.rate, c.words, got, c.want)
		}
	}
	if got := DefaultConfig().MustQuantize(40).TransferCycles(0); got != 0 {
		t.Errorf("transfer(0W) = %d, want 0", got)
	}
}

func TestRateStringAndWordsPerCycle(t *testing.T) {
	if Rate4PerCycle.WordsPerCycle() != 4 {
		t.Errorf("4/1 words per cycle = %v", Rate4PerCycle.WordsPerCycle())
	}
	if Rate1Per4.WordsPerCycle() != 0.25 {
		t.Errorf("1/4 words per cycle = %v", Rate1Per4.WordsPerCycle())
	}
	if Rate1PerCycle.String() != "1W/cycle" {
		t.Errorf("rate string = %q", Rate1PerCycle.String())
	}
	if Rate1Per2.String() != "1W/2cycles" {
		t.Errorf("rate string = %q", Rate1Per2.String())
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{ReadNs: 0, WriteNs: 100, RecoverNs: 120, Transfer: Rate1PerCycle},
		{ReadNs: 180, WriteNs: -1, RecoverNs: 120, Transfer: Rate1PerCycle},
		{ReadNs: 180, WriteNs: 100, RecoverNs: 120, Transfer: Rate{0, 1}},
		{ReadNs: 180, WriteNs: 100, RecoverNs: 120, Transfer: Rate{1, 0}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestUniformLatency(t *testing.T) {
	c := UniformLatency(260, Rate1PerCycle)
	if c.ReadNs != 260 || c.WriteNs != 260 || c.RecoverNs != 260 {
		t.Errorf("uniform latency fields = %+v", c)
	}
	// "A 260ns latency makes for a 12 cycle read request for a block size
	// of 4 and a cycle time of 40ns."
	if got := c.MustQuantize(40).ReadCycles(4); got != 12 {
		t.Errorf("260ns latency read(4W) = %d cycles, want 12", got)
	}
}

func TestUnitReadScheduling(t *testing.T) {
	u := NewUnit(DefaultConfig().MustQuantize(40))
	// Idle read at cycle 0: data at ReadCycles(4) = 10.
	if got := u.StartRead(0, 4); got != 10 {
		t.Fatalf("first read data at %d, want 10", got)
	}
	if u.FreeAt != 13 { // 10 + 3 recovery
		t.Fatalf("free at %d, want 13", u.FreeAt)
	}
	// A read arriving at cycle 5 waits for recovery.
	if got := u.StartRead(5, 4); got != 23 {
		t.Fatalf("second read data at %d, want 23", got)
	}
	if u.WaitCycles != 8 {
		t.Fatalf("wait cycles = %d, want 8", u.WaitCycles)
	}
	if u.Reads != 2 {
		t.Fatalf("reads = %d, want 2", u.Reads)
	}
}

func TestUnitWriteScheduling(t *testing.T) {
	u := NewUnit(DefaultConfig().MustQuantize(40))
	// Write of a 4-word block: accepted after 1+4 = 5 cycles; busy
	// through 1+4+ceil(100/40)=8, plus 3 recovery.
	if got := u.StartWrite(0, 4); got != 5 {
		t.Fatalf("write accepted at %d, want 5", got)
	}
	if u.FreeAt != 11 {
		t.Fatalf("free at %d, want 11", u.FreeAt)
	}
	if u.Writes != 1 {
		t.Fatalf("writes = %d, want 1", u.Writes)
	}
}

func TestStartReadBlockedVictimOverlap(t *testing.T) {
	u := NewUnit(DefaultConfig().MustQuantize(40))
	// 4-word victim hides entirely inside the 6-cycle latency.
	dataAt, fillStart := u.StartReadBlocked(0, 4, 4)
	if fillStart != 6 || dataAt != 10 {
		t.Fatalf("hidden victim: fill %d data %d, want 6 and 10", fillStart, dataAt)
	}
	u.Reset()
	// 32-word victim exceeds the latency: fill waits until cycle 32.
	dataAt, fillStart = u.StartReadBlocked(0, 32, 32)
	if fillStart != 32 {
		t.Fatalf("long victim fill start %d, want 32", fillStart)
	}
	if dataAt != 32+32 {
		t.Fatalf("long victim data at %d, want 64", dataAt)
	}
}

func TestUnitReset(t *testing.T) {
	u := NewUnit(DefaultConfig().MustQuantize(40))
	u.StartRead(0, 4)
	u.StartWrite(0, 4)
	u.Reset()
	if u.FreeAt != 0 || u.Reads != 0 || u.Writes != 0 || u.WaitCycles != 0 {
		t.Fatalf("reset left state: %+v", u)
	}
}

// Property: read cycles are always at least latency + 1 transfer cycle, and
// monotone in block size and in memory latency.
func TestReadCyclesMonotonic(t *testing.T) {
	f := func(latSel, bsSel, cySel uint8) bool {
		lats := []int{100, 180, 260, 340, 420}
		cycles := []int{20, 24, 32, 40, 56, 60, 80}
		la := lats[int(latSel)%len(lats)]
		cy := cycles[int(cySel)%len(cycles)]
		bs := 1 << (bsSel % 8) // 1..128 words
		tm := UniformLatency(la, Rate1PerCycle).MustQuantize(cy)
		r := tm.ReadCycles(bs)
		if r < tm.LatencyCycles+1 {
			return false
		}
		if bs >= 2 && tm.ReadCycles(bs/2) > r {
			return false
		}
		if la >= 180 {
			smaller := UniformLatency(la-80, Rate1PerCycle).MustQuantize(cy)
			if smaller.ReadCycles(bs) > r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantization never loses time — cycles × cycle time covers the
// nanosecond budget of each component.
func TestQuantizationCoversNs(t *testing.T) {
	f := func(cySel, laSel uint8) bool {
		cy := 20 + int(cySel%16)*4
		la := 100 + int(laSel%9)*40
		tm := UniformLatency(la, Rate1PerCycle).MustQuantize(cy)
		if (tm.LatencyCycles-1)*cy < la {
			return false
		}
		if tm.RecoveryCycles*cy < la {
			return false
		}
		return tm.WriteLagCycles*cy >= la
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestTransferCyclesShiftMatchesDivision: the shift taken for power-of-two
// rates gives exactly the ceiling division taken for the others, over
// every rate and transfer size up to 1 Ki words.
func TestTransferCyclesShiftMatchesDivision(t *testing.T) {
	for num := 1; num <= 16; num++ {
		for den := 1; den <= 8; den++ {
			tm := Timing{Transfer: Rate{num, den}}
			for words := 1; words <= 1024; words++ {
				want := max(1, ceilDiv(words*den, num))
				if got := tm.TransferCycles(words); got != want {
					t.Fatalf("rate %d/%d, %d words: %d cycles, want %d", num, den, words, got, want)
				}
			}
		}
	}
}
