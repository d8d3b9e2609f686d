// Package mem models the paper's main memory: a single synchronous
// functional unit whose operation times quantize to whole CPU cycles.
//
// A read is a latency portion followed by a transfer period. The default
// latency is one cycle to present the block address plus 180 ns of access
// time, so at cycle time T the latency is 1 + ceil(180/T) cycles. Transfer
// proceeds at the backplane rate (default one word per cycle). After a read
// completes, a recovery period (default 120 ns, the difference between DRAM
// access and cycle times) must elapse before the next operation starts.
// Writes take one cycle for the address and one transfer period, after
// which the cache proceeds while the write itself (default 100 ns) and the
// same recovery complete in the background.
//
// These rules reproduce the paper's Table 2 exactly (see the unit tests).
package mem

import (
	"fmt"
	"math/bits"
)

// Rate is a rational transfer rate: Num words move per Den cycles. The
// paper varies the rate from four words per cycle down to one word per four
// cycles (peak bandwidths of 400 MB/s down to 25 MB/s at 40 ns).
type Rate struct {
	Num int // words
	Den int // cycles
}

// Common transfer rates from the paper's Section 5 sweep.
var (
	Rate4PerCycle = Rate{4, 1}
	Rate2PerCycle = Rate{2, 1}
	Rate1PerCycle = Rate{1, 1} // default
	Rate1Per2     = Rate{1, 2}
	Rate1Per4     = Rate{1, 4}
)

// WordsPerCycle returns the rate as a float, the paper's "tr" parameter.
func (r Rate) WordsPerCycle() float64 { return float64(r.Num) / float64(r.Den) }

func (r Rate) String() string {
	if r.Den == 1 {
		return fmt.Sprintf("%dW/cycle", r.Num)
	}
	return fmt.Sprintf("%dW/%dcycles", r.Num, r.Den)
}

// Validate reports whether the rate is usable.
func (r Rate) Validate() error {
	if r.Num <= 0 || r.Den <= 0 {
		return fmt.Errorf("mem: invalid transfer rate %d/%d", r.Num, r.Den)
	}
	return nil
}

// Config holds the memory timing parameters. The zero value is not useful;
// use DefaultConfig.
type Config struct {
	// ReadNs is the access-time portion of a read (address decode, DRAM
	// access, ECC), excluding the one-cycle address presentation and the
	// transfer period.
	ReadNs int
	// WriteNs is the background portion of a write after address and
	// data transfer.
	WriteNs int
	// RecoverNs must elapse after an operation completes before the next
	// may start (DRAM precharge).
	RecoverNs int
	// Transfer is the backplane rate.
	Transfer Rate
}

// DefaultConfig is the paper's base memory: 180 ns read, 100 ns write,
// 120 ns recovery, one word per cycle. "Quite aggressive by today's
// standards" — representative of a single-master private memory bus.
func DefaultConfig() Config {
	return Config{ReadNs: 180, WriteNs: 100, RecoverNs: 120, Transfer: Rate1PerCycle}
}

// UniformLatency returns a configuration where read, write and recovery
// times all equal la nanoseconds, as in the paper's Section 5 sweep.
func UniformLatency(laNs int, tr Rate) Config {
	return Config{ReadNs: laNs, WriteNs: laNs, RecoverNs: laNs, Transfer: tr}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ReadNs <= 0 || c.WriteNs <= 0 || c.RecoverNs < 0 {
		return fmt.Errorf("mem: non-positive operation times (read %d, write %d, recover %d)",
			c.ReadNs, c.WriteNs, c.RecoverNs)
	}
	return c.Transfer.Validate()
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Timing is the cycle-quantized view of a memory configuration at one CPU
// cycle time. All simulators work in these integer cycle counts.
type Timing struct {
	CycleNs int
	// LatencyCycles is the address cycle plus the quantized read access
	// time: the cycles until the first word begins transferring.
	LatencyCycles int
	// WriteLagCycles is the quantized background write time.
	WriteLagCycles int
	// RecoveryCycles separates consecutive memory operations.
	RecoveryCycles int
	Transfer       Rate
}

// Quantize computes the cycle-quantized timing at cycle time T (ns). It
// rejects non-positive cycle times with an error so user-supplied cycle
// times (CLI flags, spec files) fail cleanly instead of panicking.
func (c Config) Quantize(cycleNs int) (Timing, error) {
	if cycleNs <= 0 {
		return Timing{}, fmt.Errorf("mem: non-positive cycle time %d", cycleNs)
	}
	return Timing{
		CycleNs:        cycleNs,
		LatencyCycles:  1 + ceilDiv(c.ReadNs, cycleNs),
		WriteLagCycles: ceilDiv(c.WriteNs, cycleNs),
		RecoveryCycles: ceilDiv(c.RecoverNs, cycleNs),
		Transfer:       c.Transfer,
	}, nil
}

// MustQuantize is Quantize that panics on error, for static tables and
// call sites whose cycle time is already validated.
func (c Config) MustQuantize(cycleNs int) Timing {
	tm, err := c.Quantize(cycleNs)
	if err != nil {
		panic(err)
	}
	return tm
}

// TransferCycles returns the cycles needed to move the given number of
// words across the backplane. The minimum is one cycle: a narrow transfer
// cannot use less than a cycle even at four words per cycle.
func (t Timing) TransferCycles(words int) int {
	if words <= 0 {
		return 0
	}
	var cycles int
	if num := t.Transfer.Num; num&(num-1) == 0 {
		// Every rate the paper sweeps moves a power-of-two number of
		// words per period: shift rather than divide on each transfer.
		cycles = (words*t.Transfer.Den + num - 1) >> bits.TrailingZeros(uint(num))
	} else {
		cycles = ceilDiv(words*t.Transfer.Den, num)
	}
	if cycles < 1 {
		cycles = 1
	}
	return cycles
}

// ReadCycles is the total duration of a block read: address + latency +
// transfer. This is the paper's Table 2 "Read Time" and, equivalently, the
// cache miss penalty la + BS/tr.
func (t Timing) ReadCycles(blockWords int) int {
	return t.LatencyCycles + t.TransferCycles(blockWords)
}

// WriteBusyCycles is how long a write occupies the memory unit: address +
// transfer + background write. The requesting cache proceeds after
// WriteAcceptCycles; Table 2's "Write Time" is this full busy duration.
func (t Timing) WriteBusyCycles(words int) int {
	return 1 + t.TransferCycles(words) + t.WriteLagCycles
}

// WriteAcceptCycles is how long the requester is occupied handing a write
// to the memory: the address cycle plus the data transfer.
func (t Timing) WriteAcceptCycles(words int) int {
	return 1 + t.TransferCycles(words)
}

// Unit is the run-time scheduling state of the single memory functional
// unit: the earliest cycle at which it can begin a new operation. The zero
// value is an idle unit at cycle 0.
type Unit struct {
	Timing Timing
	// FreeAt is the first cycle at which a new operation may start
	// (previous operation plus its recovery).
	FreeAt int64

	// Statistics.
	Reads      int64
	Writes     int64
	WaitCycles int64 // cycles requests spent waiting for the unit
	BusyCycles int64 // cycles the unit was occupied (operations + recovery)

	// Read-path decomposition, for cycle attribution. WaitCycles mixes
	// read and write waits; these three split out the synchronous read
	// path: ReadWaitCycles is the read share of WaitCycles,
	// ReadRecoveryWaitCycles the part of that spent inside the previous
	// operation's recovery tail, and ReadServiceCycles the full
	// request-to-last-word duration of every read. None of them feed the
	// simulators' results; they only ever feed attribution reports.
	ReadWaitCycles         int64
	ReadRecoveryWaitCycles int64
	ReadServiceCycles      int64
}

// NewUnit returns an idle unit with the given timing.
func NewUnit(t Timing) *Unit { return &Unit{Timing: t} }

// StartRead begins a block read no earlier than now, returning the cycle at
// which the last word has arrived. The unit then recovers before its next
// operation.
func (u *Unit) StartRead(now int64, blockWords int) (dataAt int64) {
	dataAt, _ = u.StartReadBlocked(now, blockWords, 0)
	return dataAt
}

// StartReadBlocked is StartRead for a miss that displaced a dirty victim:
// the victim leaves the cache over a one-word-per-cycle path starting at
// now, and the fill cannot begin until the victim is out. When the victim
// transfer fits inside the latency period the write back is completely
// hidden, exactly as the paper describes; for long blocks the difference
// delays the fill. Returns the arrival cycle of the last word and the cycle
// at which the first word began transferring (used by early-continuation
// variants).
func (u *Unit) StartReadBlocked(now int64, blockWords, victimOutWords int) (dataAt, fillStart int64) {
	return u.StartFill(now, u.Timing.TransferCycles(blockWords), victimOutWords)
}

// StartFill is StartReadBlocked with the fill's transfer time supplied in
// cycles, for callers that fetch one fixed size at one timing and compute
// Timing.TransferCycles once rather than on every miss.
func (u *Unit) StartFill(now int64, transferCycles, victimOutWords int) (dataAt, fillStart int64) {
	start := now
	if u.FreeAt > start {
		wait := u.FreeAt - start
		u.WaitCycles += wait
		u.ReadWaitCycles += wait
		if rec := int64(u.Timing.RecoveryCycles); rec < wait {
			u.ReadRecoveryWaitCycles += rec
		} else {
			u.ReadRecoveryWaitCycles += wait
		}
		start = u.FreeAt
	}
	fillStart = start + int64(u.Timing.LatencyCycles)
	if v := now + int64(victimOutWords); v > fillStart {
		fillStart = v
	}
	dataAt = fillStart + int64(transferCycles)
	u.FreeAt = dataAt + int64(u.Timing.RecoveryCycles)
	u.BusyCycles += u.FreeAt - start
	u.ReadServiceCycles += dataAt - now
	u.Reads++
	return dataAt, fillStart
}

// StartWrite begins a write of the given words no earlier than now,
// returning the cycle at which the writer is released (address + transfer
// accepted). The unit stays busy through the background write and recovery.
func (u *Unit) StartWrite(now int64, words int) (acceptedAt int64) {
	start := now
	if u.FreeAt > start {
		u.WaitCycles += u.FreeAt - start
		start = u.FreeAt
	}
	// WriteAcceptCycles and WriteBusyCycles, sharing one transfer time.
	accepted := start + 1 + int64(u.Timing.TransferCycles(words))
	busy := accepted + int64(u.Timing.WriteLagCycles)
	u.FreeAt = busy + int64(u.Timing.RecoveryCycles)
	u.BusyCycles += u.FreeAt - start
	u.Writes++
	return accepted
}

// NextFree is the earliest cycle at which the unit could begin a new
// operation. It satisfies the write buffer's Sink interface.
func (u *Unit) NextFree() int64 { return u.FreeAt }

// Reset returns the unit to idle at cycle 0, clearing statistics.
func (u *Unit) Reset() {
	u.FreeAt = 0
	u.Reads, u.Writes, u.WaitCycles, u.BusyCycles = 0, 0, 0, 0
	u.ReadWaitCycles, u.ReadRecoveryWaitCycles, u.ReadServiceCycles = 0, 0, 0
}
