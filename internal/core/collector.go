package core

import (
	"resilientmix/internal/erasure"
	"resilientmix/internal/sim"
)

// Collector gathers coded segments by message (or conversation) ID and
// rebuilds each message from any m of its n segments (§4.2). It is
// IO-free: no lock, no clock, no engine. Its drivers pass the time in
// and sweep it: the simulator's Receiver and Session, and the socket
// transport's livenet.LiveCollector.
type Collector struct {
	ttl       sim.Time
	nextSweep sim.Time
	entries   map[uint64]*collecting
}

type collecting struct {
	needed, total int32
	size          int               // shard length, fixed by the first segment
	seen          []bool            // by segment index; nil once done
	segs          []erasure.Segment // distinct segments in arrival order; nil once done
	decoding      bool              // a Ready is out and not yet Finished
	done          bool
	firstAt       sim.Time
	expires       sim.Time
}

// Verdict is what Add made of one segment.
type Verdict uint8

const (
	// Rejected: a bad code shape or index, or a shape or segment length
	// other than the one the message's first segment fixed. Drop it; do
	// not ack.
	Rejected Verdict = iota
	// Fresh: a distinct segment, now held.
	Fresh
	// Duplicate: already held, or the message is already rebuilt.
	Duplicate
)

// Ready is a message whose first m distinct segments are in. Its
// Decode touches no collector state, so a driver may run it outside
// the lock that guards the collector.
type Ready struct {
	Needed, Total int32
	Segs          []erasure.Segment
	FirstAt       sim.Time
}

// NewCollector returns a collector that forgets a message ttl after its
// last segment.
func NewCollector(ttl sim.Time) *Collector {
	return &Collector{ttl: ttl, nextSweep: ttl, entries: make(map[uint64]*collecting)}
}

// Add files one segment received at now. The first segment of a
// message fixes its (needed, total) and its shard length, so one
// malformed segment cannot spoil every decode. When this segment completes m
// distinct segments and no decode of the message is under way, Add
// returns a Ready; the caller decodes it and reports the outcome with
// Finish.
func (c *Collector) Add(id uint64, needed, total, index int32, data []byte, now sim.Time) (Verdict, *Ready) {
	if !validCodeShape(needed, total) || index < 0 || index >= total {
		return Rejected, nil
	}
	e := c.entries[id]
	if e == nil {
		e = &collecting{needed: needed, total: total, size: len(data), seen: make([]bool, total), firstAt: now}
		c.entries[id] = e
	}
	e.expires = now + c.ttl
	if e.needed != needed || e.total != total || e.size != len(data) {
		return Rejected, nil
	}
	if e.done || e.seen[index] {
		return Duplicate, nil
	}
	e.seen[index] = true
	e.segs = append(e.segs, erasure.Segment{Index: int(index), Data: data})
	if e.decoding || int32(len(e.segs)) < e.needed {
		return Fresh, nil
	}
	e.decoding = true
	n := len(e.segs)
	return Fresh, &Ready{Needed: e.needed, Total: e.total, Segs: e.segs[:n:n], FirstAt: e.firstAt}
}

// Decode rebuilds the message from its segments.
func (r *Ready) Decode() ([]byte, error) {
	code, err := erasure.New(int(r.Needed), int(r.Total))
	if err != nil {
		return nil, err
	}
	return code.Reconstruct(r.Segs)
}

// Finish records the outcome of decoding a Ready. A rebuilt message is
// marked done and its segments are freed; the done marker stays until
// the message expires, so duplicates are not delivered again. After a
// failed decode the next fresh segment yields a new Ready.
func (c *Collector) Finish(id uint64, ok bool) {
	e := c.entries[id]
	if e == nil {
		return
	}
	e.decoding = false
	if ok {
		e.done = true
		e.seen, e.segs = nil, nil
	}
}

// Collect is Add, Decode and Finish in one step, for drivers that run
// on one goroutine. The Ready is non-nil when this segment completed
// the message; err then reports whether decoding failed.
func (c *Collector) Collect(id uint64, needed, total, index int32, data []byte, now sim.Time) (v Verdict, r *Ready, msg []byte, err error) {
	v, r = c.Add(id, needed, total, index, data, now)
	if r == nil {
		return v, nil, nil, nil
	}
	msg, err = r.Decode()
	c.Finish(id, err == nil)
	return v, r, msg, err
}

// Done reports whether message id was rebuilt (and not yet swept), with
// the code shape it arrived in.
func (c *Collector) Done(id uint64) (needed, total int32, ok bool) {
	e := c.entries[id]
	if e == nil || !e.done {
		return 0, 0, false
	}
	return e.needed, e.total, true
}

// Holds reports whether the collector still holds message id.
func (c *Collector) Holds(id uint64) bool { return c.entries[id] != nil }

// Len returns the number of messages held, partial or done.
func (c *Collector) Len() int { return len(c.entries) }

// Sweep drops every message whose last segment arrived a TTL or more
// before now.
func (c *Collector) Sweep(now sim.Time) {
	for id, e := range c.entries {
		if e.expires <= now {
			delete(c.entries, id)
		}
	}
	c.nextSweep = now + c.ttl
}

// SweepDue sweeps once now passes the next sweep mark (one TTL after
// the last sweep). Drivers without a timer call it on every input.
func (c *Collector) SweepDue(now sim.Time) {
	if now >= c.nextSweep {
		c.Sweep(now)
	}
}
