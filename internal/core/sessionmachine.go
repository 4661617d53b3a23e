package core

import (
	"errors"
	"slices"

	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
)

// SessionMachine is the initiator of §4.5 and §4.7 without any IO: it
// keeps each path slot's liveness and relays, deals segment indexes to
// slots, and tracks the outstanding (slot, index) jobs of every message
// and probe round against end-to-end acks. At a round's ack deadline it
// names the slots the timeout condemns and, within the retransmit
// budget, what to send again. It has no lock, clock, engine, RNG or
// goroutine: drivers pass each event in with the MID, then send, arm
// timers, trace and count themselves. core.Session drives it on the
// simulation engine, livenet.LiveSession from goroutines under a mutex.
//
// A message is delivered at m distinct acks and lost when the budget
// is spent short of that. Its state is freed at the first ack deadline
// after its verdict, so the slots that never acked an early-delivered
// message are still condemned.
type SessionMachine struct {
	cfg      SessionConfig
	slots    []machineSlot
	msgs     map[uint64]*outbound
	inflight int // data messages without a verdict
}

// SessionConfig fixes a SessionMachine's shape.
type SessionConfig struct {
	Self, Responder netsim.NodeID
	K               int // path slots
	Needed, Total   int // the (m, n) code
	AckTimeout      sim.Time
	Retransmits     int               // rounds after the first; the simulator uses none
	MaxInflight     int               // data messages without a verdict; 0 means no bound
	Relays          [][]netsim.NodeID // each slot's relays before its first path, if known
}

// machineSlot is one path slot: live, repairing (down with a
// construction in flight), replacing (live with a successor under
// construction, the §4.5 predictor's case) or down.
type machineSlot struct {
	alive, building bool
	epoch           uint32 // bumped by Revive: jobs on an older path cannot condemn a newer one
	relays          []netsim.NodeID
}

// outbound is one data message or probe round.
type outbound struct {
	probe, resolved bool
	rounds, nAcked  int
	jobs            []sentJob // the current round's
	acked           []bool    // by segment index, or by slot for a probe round
}

// Job is one segment on one path slot; in a probe round, Index = Slot.
type Job struct {
	Slot  int
	Index int32
}

type sentJob struct {
	Job
	epoch uint32
}

// AckResult is what Ack made of one end-to-end ack.
type AckResult uint8

const (
	AckUnknown   AckResult = iota // no held message or probe round has the MID
	AckProbe                      // an echo of a held probe round
	AckRepeat                     // a held message, but the index is acked already or out of range
	AckFresh                      // a new distinct index
	AckDelivered                  // a new distinct index, the message's m-th
)

// Expiry is what one round's ack deadline decided.
type Expiry struct {
	// Condemn lists in slot order the live slots whose job went unacked
	// on the path they still stand on. The driver condemns them one by
	// one, so that a rebuild started for one still sees the others up.
	Condemn []int
	Missed  int  // the round's unacked jobs
	Lost    bool // the budget is spent short of m acks
	Resend  bool // call Retransmit (after the condemnations)
}

var (
	errInflightFull = errors.New("core: in-flight bound reached")
	errMIDInUse     = errors.New("core: message ID already held")
)

// NewSessionMachine returns a machine whose K slots are all down.
func NewSessionMachine(cfg SessionConfig) *SessionMachine {
	m := &SessionMachine{cfg: cfg, slots: make([]machineSlot, cfg.K), msgs: make(map[uint64]*outbound)}
	for i := 0; i < cfg.K && i < len(cfg.Relays); i++ {
		m.slots[i].relays = cfg.Relays[i]
	}
	return m
}

// Alive reports whether slot has a standing path.
func (m *SessionMachine) Alive(slot int) bool { return m.slots[slot].alive }

// Repairing reports whether slot is down with a construction in flight.
func (m *SessionMachine) Repairing(slot int) bool {
	return !m.slots[slot].alive && m.slots[slot].building
}

// LiveSlots returns the live slots in slot order.
func (m *SessionMachine) LiveSlots() []int {
	var live []int
	for i := range m.slots {
		if m.slots[i].alive {
			live = append(live, i)
		}
	}
	return live
}

// Degraded reports whether the session runs below its full path width.
func (m *SessionMachine) Degraded() bool { return len(m.LiveSlots()) < len(m.slots) }

// Relays returns the relays of slot's current or last path.
func (m *SessionMachine) Relays(slot int) []netsim.NodeID { return m.slots[slot].relays }

// Inflight returns the number of data messages without a verdict.
func (m *SessionMachine) Inflight() int { return m.inflight }

// Full reports whether the in-flight bound admits no new message.
func (m *SessionMachine) Full() bool { return m.cfg.MaxInflight > 0 && m.inflight >= m.cfg.MaxInflight }

// Revive puts slot live on a new path through relays, ending any
// construction in flight for it.
func (m *SessionMachine) Revive(slot int, relays []netsim.NodeID) {
	sl := &m.slots[slot]
	sl.alive, sl.building, sl.relays = true, false, relays
	sl.epoch++
}

// Condemn takes a live slot down (§4.5's failure verdict); it reports
// false when the slot was already down. A replacing slot becomes
// repairing.
func (m *SessionMachine) Condemn(slot int) bool {
	was := m.slots[slot].alive
	m.slots[slot].alive = false
	return was
}

// Rebuild starts a construction for slot, a repair or a replacement;
// it reports false when one is already in flight. The driver ends it
// with Revive or RebuildFailed.
func (m *SessionMachine) Rebuild(slot int) bool {
	was := m.slots[slot].building
	m.slots[slot].building = true
	return !was
}

// RebuildFailed ends slot's construction without a new path.
func (m *SessionMachine) RebuildFailed(slot int) { m.slots[slot].building = false }

// Exclude returns the nodes a rebuild of slot must avoid: both
// endpoints, then the relays of every other live slot in slot order.
func (m *SessionMachine) Exclude(slot int) []netsim.NodeID {
	ex := []netsim.NodeID{m.cfg.Self, m.cfg.Responder}
	for i := range m.slots {
		if i != slot && m.slots[i].alive {
			ex = append(ex, m.slots[i].relays...)
		}
	}
	return ex
}

// Allocate deals segment indexes 0..n-1 to slots. With a nil score it
// is §4.7's even split over every slot, live or not. With a score it is
// §7's weighting: live slots only, in proportion to score(slot) floored
// at 0.01 so every live path gets some share, by largest remainder.
func (m *SessionMachine) Allocate(n int, score func(slot int) float64) [][]int {
	assign := make([][]int, len(m.slots))
	if score == nil {
		for idx := 0; idx < n; idx++ {
			slot := m.home(idx, n)
			assign[slot] = append(assign[slot], idx)
		}
		return assign
	}
	live := m.LiveSlots()
	scores := make([]float64, len(live))
	var total float64
	for i, slot := range live {
		scores[i] = max(score(slot), 0.01)
		total += scores[i]
	}
	counts := make([]int, len(live))
	rem := make([]float64, len(live))
	used := 0
	for i := range live {
		exact := float64(n) * scores[i] / total
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		used += counts[i]
	}
	for ; len(live) > 0 && used < n; used++ {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	idx := 0
	for i, slot := range live {
		for j := 0; j < counts[i]; j, idx = j+1, idx+1 {
			assign[slot] = append(assign[slot], idx)
		}
	}
	return assign
}

// home is the slot the even split of n segments gives index idx: runs
// of n/k per slot, then any remainder round-robin (only when k does not
// divide n, which the paper excludes but the machine permits).
func (m *SessionMachine) home(idx, n int) int {
	k := len(m.slots)
	per := n / k
	if idx < per*k {
		return idx / per
	}
	return (idx - per*k) % k
}

// Track holds a message, or with probe set a probe round, whose jobs
// left at now, and returns its ack deadline. A job on a repairing slot
// rides the construction in flight (§4.2's combined mode) and answers
// for the path it stands up. A data message is refused when the
// in-flight bound is reached.
func (m *SessionMachine) Track(mid uint64, probe bool, jobs []Job, now sim.Time) (sim.Time, error) {
	if m.msgs[mid] != nil {
		return 0, errMIDInUse
	}
	size := len(m.slots)
	if !probe {
		if m.Full() {
			return 0, errInflightFull
		}
		m.inflight++
		size = m.cfg.Total
	}
	o := &outbound{probe: probe, acked: make([]bool, size)}
	m.record(o, jobs)
	m.msgs[mid] = o
	return now + m.cfg.AckTimeout, nil
}

func (m *SessionMachine) record(o *outbound, jobs []Job) {
	o.jobs = o.jobs[:0]
	for _, j := range jobs {
		sl := &m.slots[j.Slot]
		e := sl.epoch
		if !sl.alive && sl.building {
			e++
		}
		o.jobs = append(o.jobs, sentJob{j, e})
	}
}

// Ack files an end-to-end ack of index for mid.
func (m *SessionMachine) Ack(mid uint64, index int32) AckResult {
	o := m.msgs[mid]
	switch {
	case o == nil:
		return AckUnknown
	case o.probe:
		if index >= 0 && int(index) < len(o.acked) {
			o.acked[index] = true
		}
		return AckProbe
	case index < 0 || int(index) >= len(o.acked) || o.acked[index]:
		return AckRepeat
	}
	o.acked[index] = true
	o.nAcked++
	if o.resolved || o.nAcked < m.cfg.Needed {
		return AckFresh
	}
	o.resolved = true
	m.inflight--
	return AckDelivered
}

// Expire runs the ack deadline of mid's current round (§4.5 timeout
// detection), freeing a probe round, a message with a verdict and a
// message it finds lost.
func (m *SessionMachine) Expire(mid uint64) Expiry {
	var v Expiry
	o := m.msgs[mid]
	if o == nil {
		return v
	}
	for _, j := range o.jobs {
		if !o.acked[j.Index] {
			v.Missed++
			if sl := m.slots[j.Slot]; sl.alive && sl.epoch == j.epoch {
				v.Condemn = append(v.Condemn, j.Slot)
			}
		}
	}
	slices.Sort(v.Condemn)
	v.Condemn = slices.Compact(v.Condemn)
	switch {
	case o.probe || o.resolved:
		delete(m.msgs, mid)
	case o.rounds < m.cfg.Retransmits:
		v.Resend = true
	default:
		v.Lost = true
		m.inflight--
		delete(m.msgs, mid)
	}
	return v
}

// Retransmit starts mid's next round after a Resend: each unacked index
// goes to its home slot when that is live, else round-robin over the
// live slots. It returns the jobs (none when no slot is live) and the
// round's ack deadline.
func (m *SessionMachine) Retransmit(mid uint64, now sim.Time) ([]Job, sim.Time) {
	o := m.msgs[mid]
	if o == nil || o.probe || o.resolved {
		return nil, 0
	}
	o.rounds++
	live := m.LiveSlots()
	var jobs []Job
	rr := 0
	for idx, acked := range o.acked {
		if acked || len(live) == 0 {
			continue
		}
		slot := m.home(idx, len(o.acked))
		if !m.slots[slot].alive {
			slot = live[rr%len(live)]
			rr++
		}
		jobs = append(jobs, Job{Slot: slot, Index: int32(idx)})
	}
	m.record(o, jobs)
	return jobs, now + m.cfg.AckTimeout
}
