// Package writebuf models the paper's write buffers: FIFO queues of pending
// writes placed between every level of the memory hierarchy.
//
// Buffered writes drain to the next level in the background whenever that
// level is idle; reads have priority, so a queued write that has not yet
// started never delays a read. A write that has started must complete
// (including the next level's recovery time) before a read may begin, which
// the next level's own scheduling enforces. Reads check the buffered
// addresses: on a match the read is delayed until the matching write (and
// everything queued ahead of it) propagates into the next level, keeping
// fetched data coherent. With the paper's four-entry buffer the queue
// "essentially never fills up"; when it does, the writer stalls until the
// head entry drains.
package writebuf

import "fmt"

// Sink is the downstream interface the buffer drains into. It is satisfied
// by the memory unit and cache-level adapters in the system package.
type Sink interface {
	// StartWrite begins writing words starting at addr no earlier than now,
	// returning the cycle at which the transfer has been accepted (the
	// buffer entry is then gone). The sink serializes operations
	// internally.
	StartWrite(now int64, addr uint64, words int) int64
	// NextFree is the earliest cycle at which the sink could begin a new
	// operation, used to decide whether a queued write has already
	// started in the background.
	NextFree() int64
}

// Auditor observes buffer state transitions, for the selfcheck layer:
// Enqueued fires when a write enters the queue (or passes straight
// through an unbuffered depth-0 buffer), Started when a queued write is
// handed to the sink and leaves the queue. Starts are reported in queue
// order, so an auditor can verify FIFO behaviour and occupancy bounds.
type Auditor interface {
	Enqueued(addr uint64, words int)
	Started(addr uint64, words int)
}

type entry struct {
	addr  uint64 // starting word address
	words int
	ready int64 // earliest cycle the write may start
}

// Buffer is a FIFO write buffer. Not safe for concurrent use.
type Buffer struct {
	depth int
	sink  Sink
	aud   Auditor
	queue []entry // unstarted writes only; started writes leave the queue

	// Statistics.
	Enqueued        int64
	Drained         int64
	MatchEvents     int64 // reads that hit a buffered address
	FullStallCycles int64 // writer cycles lost to a full buffer
	MaxOccupancy    int
}

// New constructs a buffer of the given depth draining into sink. Depth 0
// means no buffering: every write stalls the writer until accepted. A
// negative depth is a configuration error.
func New(depth int, sink Sink) (*Buffer, error) {
	if depth < 0 {
		return nil, fmt.Errorf("writebuf: negative depth %d", depth)
	}
	return &Buffer{depth: depth, sink: sink}, nil
}

// MustNew is New that panics on error, for tests and call sites whose
// depth is already validated.
func MustNew(depth int, sink Sink) *Buffer {
	b, err := New(depth, sink)
	if err != nil {
		panic(err)
	}
	return b
}

// SetAuditor attaches an auditor (nil detaches). Auditing is off the hot
// path unless attached.
func (b *Buffer) SetAuditor(a Auditor) { b.aud = a }

// Depth returns the configured capacity.
func (b *Buffer) Depth() int { return b.depth }

// Len returns the number of queued (unstarted) writes.
func (b *Buffer) Len() int { return len(b.queue) }

// Drain starts every queued write whose start time falls strictly before
// now, modelling background draining while the processor computed. Started
// writes are removed from the queue; the sink's busy state carries their
// cost forward.
func (b *Buffer) Drain(now int64) {
	for len(b.queue) > 0 {
		head := b.queue[0]
		start := head.ready
		if f := b.sink.NextFree(); f > start {
			start = f
		}
		if start >= now {
			return
		}
		b.sink.StartWrite(head.ready, head.addr, head.words)
		b.pop()
	}
}

func (b *Buffer) pop() {
	if b.aud != nil {
		b.aud.Started(b.queue[0].addr, b.queue[0].words)
	}
	copy(b.queue, b.queue[1:])
	b.queue = b.queue[:len(b.queue)-1]
	b.Drained++
}

// Enqueue adds a write that is ready at the given cycle, returning the cycle
// at which the writer may proceed (later than ready only when the buffer was
// full and the writer had to wait for the head entry to drain).
func (b *Buffer) Enqueue(now int64, addr uint64, words int, ready int64) int64 {
	if ready < now {
		ready = now
	}
	b.Drain(now)
	b.Enqueued++
	if b.depth == 0 {
		// Unbuffered: the writer performs the write itself.
		accepted := b.sink.StartWrite(ready, addr, words)
		b.Drained++
		if b.aud != nil {
			b.aud.Enqueued(addr, words)
			b.aud.Started(addr, words)
		}
		if accepted > now {
			b.FullStallCycles += accepted - now
			return accepted
		}
		return now
	}
	release := now
	for len(b.queue) >= b.depth {
		head := b.queue[0]
		accepted := b.sink.StartWrite(head.ready, head.addr, head.words)
		b.pop()
		if accepted > release {
			release = accepted
		}
	}
	if release > now {
		b.FullStallCycles += release - now
	}
	b.queue = append(b.queue, entry{addr: addr, words: words, ready: ready})
	if b.aud != nil {
		b.aud.Enqueued(addr, words)
	}
	if len(b.queue) > b.MaxOccupancy {
		b.MaxOccupancy = len(b.queue)
	}
	return release
}

// overlaps reports whether [aStart, aStart+aWords) intersects
// [bStart, bStart+bWords).
func overlaps(aStart uint64, aWords int, bStart uint64, bWords int) bool {
	return aStart < bStart+uint64(bWords) && bStart < aStart+uint64(aWords)
}

// FlushMatching checks a read of the given word range against the queued
// writes. If any overlap, every entry up to and including the last matching
// one is force-started (FIFO order is preserved) so the read observes the
// written data; the read's own start then waits on the sink's busy state.
// Reports whether a match occurred.
func (b *Buffer) FlushMatching(now int64, addr uint64, words int) bool {
	match := -1
	for i, e := range b.queue {
		if overlaps(e.addr, e.words, addr, words) {
			match = i
		}
	}
	if match < 0 {
		return false
	}
	b.MatchEvents++
	for i := 0; i <= match; i++ {
		e := b.queue[i]
		start := e.ready
		if start < now {
			start = now
		}
		b.sink.StartWrite(start, e.addr, e.words)
		if b.aud != nil {
			b.aud.Started(e.addr, e.words)
		}
	}
	b.queue = b.queue[:copy(b.queue, b.queue[match+1:])]
	b.Drained += int64(match + 1)
	return true
}

// FlushAll force-starts every queued write, returning the sink acceptance
// time of the last one (or now if the queue was empty). Used when ending a
// simulation so traffic statistics include buffered writes.
func (b *Buffer) FlushAll(now int64) int64 {
	last := now
	for len(b.queue) > 0 {
		e := b.queue[0]
		start := e.ready
		if start < now {
			start = now
		}
		last = b.sink.StartWrite(start, e.addr, e.words)
		b.pop()
	}
	return last
}

// CheckInvariants verifies the buffer's structural properties, for the
// selfcheck interval battery: occupancy within the configured depth,
// positive entry sizes, and counter conservation (every enqueued write is
// either drained or still queued).
func (b *Buffer) CheckInvariants() error {
	if b.depth > 0 && len(b.queue) > b.depth {
		return fmt.Errorf("writebuf: %d queued entries exceed depth %d", len(b.queue), b.depth)
	}
	if b.depth > 0 && b.MaxOccupancy > b.depth {
		return fmt.Errorf("writebuf: max occupancy %d exceeds depth %d", b.MaxOccupancy, b.depth)
	}
	for i, e := range b.queue {
		if e.words <= 0 {
			return fmt.Errorf("writebuf: entry %d holds %d words", i, e.words)
		}
	}
	if b.Enqueued != b.Drained+int64(len(b.queue)) {
		return fmt.Errorf("writebuf: conservation: enqueued %d != drained %d + queued %d",
			b.Enqueued, b.Drained, len(b.queue))
	}
	return nil
}

// Reset clears the queue and statistics.
func (b *Buffer) Reset() {
	b.queue = b.queue[:0]
	b.Enqueued, b.Drained, b.MatchEvents, b.FullStallCycles = 0, 0, 0, 0
	b.MaxOccupancy = 0
}
