package simtrace

import (
	"encoding/json"
	"fmt"
	"io"
)

// DefaultEventCap bounds the event ring when Options.EventCap is zero:
// enough for the tail of any interesting run at ~3 MB.
const DefaultEventCap = 1 << 16

// EventKind types a timeline event.
type EventKind uint8

const (
	// EvIfetchMiss spans an instruction-fetch miss from issue to
	// completion; EvLoadMiss and EvStoreMiss are the data analogues.
	EvIfetchMiss EventKind = iota
	EvLoadMiss
	EvStoreMiss
	// EvFill spans a downstream block fill from first to last word.
	EvFill
	// EvWriteback marks a dirty victim entering the write buffer.
	EvWriteback
	// EvDrain spans a buffered write from ready to sink acceptance.
	EvDrain
	// EvBufStall spans writer cycles lost to a full write buffer.
	EvBufStall
	// EvBufMatch marks a read that matched a buffered write.
	EvBufMatch
)

func (k EventKind) String() string {
	switch k {
	case EvIfetchMiss:
		return "ifetch-miss"
	case EvLoadMiss:
		return "load-miss"
	case EvStoreMiss:
		return "store-miss"
	case EvFill:
		return "fill"
	case EvWriteback:
		return "writeback"
	case EvDrain:
		return "drain"
	case EvBufStall:
		return "wbuf-full-stall"
	case EvBufMatch:
		return "wbuf-match"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// instant reports whether the kind is a point event rather than a span.
func (k EventKind) instant() bool { return k == EvWriteback || k == EvBufMatch }

// track maps the kind onto a Chrome trace thread id, grouping related
// activity onto one timeline row.
func (k EventKind) track() (tid int, name string) {
	switch k {
	case EvIfetchMiss:
		return 1, "I-side"
	case EvLoadMiss, EvStoreMiss:
		return 2, "D-side"
	case EvWriteback, EvDrain, EvBufStall, EvBufMatch:
		return 3, "write buffer"
	default:
		return 4, "memory"
	}
}

// Event is one recorded timeline entry. Start and End are simulated
// cycles; instants have End == Start.
type Event struct {
	Kind       EventKind
	Start, End int64
	Addr       uint64
	Words      int32
}

// eventRing is a fixed-capacity ring that keeps the newest events.
type eventRing struct {
	buf     []Event
	next    int
	dropped int64
}

func (e *eventRing) init(cap int) { e.buf = make([]Event, 0, cap) }

func (e *eventRing) add(ev Event) {
	if cap(e.buf) == 0 {
		return
	}
	if len(e.buf) < cap(e.buf) {
		e.buf = append(e.buf, ev)
		return
	}
	e.buf[e.next] = ev
	e.next = (e.next + 1) % len(e.buf)
	e.dropped++
}

// events returns the ring contents in recording order.
func (e *eventRing) events() []Event {
	if e.dropped == 0 {
		return e.buf
	}
	out := make([]Event, 0, len(e.buf))
	out = append(out, e.buf[e.next:]...)
	out = append(out, e.buf[:e.next]...)
	return out
}

// Event records a timeline event when the ring is armed.
func (r *Recorder) Event(kind EventKind, start, end int64, addr uint64, words int) {
	if r != nil && r.opts.Events {
		r.ring.add(Event{Kind: kind, Start: start, End: end, Addr: addr, Words: int32(words)})
	}
}

// Events returns the recorded events in order; when the ring overflowed
// they are the newest ones. DroppedEvents counts the overflow.
func (r *Recorder) Events() []Event { return r.ring.events() }

// DroppedEvents counts events the full ring discarded.
func (r *Recorder) DroppedEvents() int64 { return r.ring.dropped }

// --- writebuf.Tracer implementation -----------------------------------
//
// The recorder satisfies the write buffer's Tracer interface directly,
// so the simulators attach it with buf.SetTracer(rec) when events are on.

// WriteStarted records a drained write as a span from ready to sink
// acceptance.
func (r *Recorder) WriteStarted(ready int64, addr uint64, words int, accepted int64) {
	r.Event(EvDrain, ready, accepted, addr, words)
}

// FullStall records writer cycles lost to a full buffer.
func (r *Recorder) FullStall(from, until int64) {
	r.Event(EvBufStall, from, until, 0, 0)
}

// Match records a read that matched a buffered write.
func (r *Recorder) Match(now int64, addr uint64) {
	r.Event(EvBufMatch, now, now, addr, 0)
}

// --- Chrome trace-event export ----------------------------------------

// ChromeEvent is one entry of the Chrome trace-event JSON format
// (loadable in Perfetto and chrome://tracing). The simulator writes
// simulated cycles as microseconds one-to-one, so the viewer's time axis
// reads directly in cycles; the service's job traces (internal/telemetry)
// write real microseconds.
type ChromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	Ts    int64             `json:"ts"`
	Dur   int64             `json:"dur"`
	Pid   int               `json:"pid"`
	Tid   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// ChromeRow names one timeline row (a thread, in the format's terms).
type ChromeRow struct {
	Tid  int
	Name string
}

type chromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes events as indented Chrome trace-event JSON, preceded
// by metadata naming process 1 and each of its rows, in the order given.
func WriteChrome(w io.Writer, process string, rows []ChromeRow, events []ChromeEvent) error {
	out := chromeTrace{
		TraceEvents:     make([]ChromeEvent, 0, 1+len(rows)+len(events)),
		DisplayTimeUnit: "ms",
	}
	out.TraceEvents = append(out.TraceEvents, ChromeEvent{
		Name: "process_name", Phase: "M", Pid: 1,
		Args: map[string]string{"name": process},
	})
	for _, row := range rows {
		out.TraceEvents = append(out.TraceEvents, ChromeEvent{
			Name: "thread_name", Phase: "M", Pid: 1, Tid: row.Tid,
			Args: map[string]string{"name": row.Name},
		})
	}
	out.TraceEvents = append(out.TraceEvents, events...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("encoding chrome trace: %w", err)
	}
	return nil
}

// WriteChromeTrace writes the recorded events as Chrome trace-event
// JSON: one complete ("X") event per span, one instant ("i") event per
// point, preceded by metadata naming the process and the per-component
// timeline rows.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	evs := r.Events()
	out := make([]ChromeEvent, 0, len(evs))
	for _, ev := range evs {
		tid, _ := ev.Kind.track()
		ce := ChromeEvent{
			Name: ev.Kind.String(),
			Cat:  "sim",
			Ts:   ev.Start,
			Pid:  1,
			Tid:  tid,
		}
		args := make(map[string]string, 2)
		if ev.Addr != 0 || !ev.Kind.instant() {
			args["addr"] = fmt.Sprintf("%#x", ev.Addr)
		}
		if ev.Words > 0 {
			args["words"] = fmt.Sprintf("%d", ev.Words)
		}
		if len(args) > 0 {
			ce.Args = args
		}
		if ev.Kind.instant() {
			ce.Phase = "i"
			ce.Scope = "t"
		} else {
			ce.Phase = "X"
			ce.Dur = ev.End - ev.Start
		}
		out = append(out, ce)
	}
	rows := []ChromeRow{{1, "I-side"}, {2, "D-side"}, {3, "write buffer"}, {4, "memory"}}
	if err := WriteChrome(w, "simulator", rows, out); err != nil {
		return fmt.Errorf("simtrace: %w", err)
	}
	return nil
}
