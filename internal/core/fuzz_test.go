package core

import (
	"bytes"
	"slices"
	"testing"

	"resilientmix/internal/netsim"
	"resilientmix/internal/sim"
)

// FuzzDecodeAppMsg feeds arbitrary bytes to the application-message
// decoder that both the simulator and the live transport parse with:
// hostile or corrupted onion payloads must produce an error or a
// well-formed message, never a panic, and every message it accepts must
// re-encode to exactly the bytes it consumed.
func FuzzDecodeAppMsg(f *testing.F) {
	f.Add(Msg{Kind: kindSegment, MID: 1, Index: 0, Total: 4, Needed: 2, Data: []byte("d")}.Encode())
	f.Add(Msg{Kind: kindSegAck, MID: 2, Index: 1}.Encode())
	f.Add(Msg{Kind: kindRespSeg, MID: 3, Index: 0, Total: 2, Needed: 1, Data: []byte("r")}.Encode())
	f.Add(Msg{Kind: kindProbe, MID: 4, Index: 0}.Encode())
	f.Add(registerMsg{Tag: 5}.encode())
	f.Add(serviceSegMsg{Kind: kindToService, Tag: 6, Conv: 7, Total: 2, Needed: 1, Data: []byte("s")}.encode())
	f.Add([]byte{})
	f.Add([]byte{99, 1, 2, 3})
	f.Add(Msg{Kind: MsgCover, Data: make([]byte, 16)}.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeAppMsg(data)
		if err != nil {
			return
		}
		var again []byte
		switch msg.kind {
		case kindSegment, kindSegAck, kindRespSeg, kindProbe, kindCover:
			again = msg.msg.Encode()
		case kindRegister:
			again = msg.register.encode()
		case kindToService, kindInbound, kindServiceReply:
			again = msg.service.encode()
		default:
			t.Fatalf("decoder accepted unknown kind %d", msg.kind)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("kind %d re-encodes to %x, input was %x", msg.kind, again, data)
		}
	})
}

// FuzzSessionMachine drives the initiator machine with arbitrary
// sequences of sends, probe rounds, acks, deadlines, revivals, rebuilds
// and condemnations, as either driver would issue them, and checks its
// invariants after every step: each MID resolves at most once, the
// in-flight bound holds, no slot is both live and repairing, a
// deadline condemns only live slots and resends only onto live ones,
// and every exclusion set holds both endpoints.
func FuzzSessionMachine(f *testing.F) {
	f.Add([]byte{3, 1, 2, 2, 4, 0, 4, 1, 4, 2, 4, 3, 0, 0, 2, 0, 0, 2, 0, 1, 3, 0, 1, 0, 3, 0})
	f.Add([]byte{1, 0, 1, 1, 4, 0, 4, 1, 0, 0, 3, 0, 3, 0, 6, 1, 5, 1, 0, 0, 3, 0, 4, 1})
	f.Add([]byte{0, 0, 0, 0, 4, 0, 1, 0, 2, 0, 3, 0, 5, 0, 6, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		k := 1 + int(in[0]%4)
		cfg := SessionConfig{
			Self: 0, Responder: 1, K: k,
			Needed: 1 + int(in[1])%k, Total: k,
			AckTimeout:  sim.Second,
			Retransmits: int(in[2] % 3),
			MaxInflight: int(in[3] % 4),
		}
		m := NewSessionMachine(cfg)
		var held []uint64             // MIDs the machine may still hold
		resolved := map[uint64]bool{} // MIDs with a verdict
		resolve := func(mid uint64) {
			if resolved[mid] {
				t.Fatalf("MID %d resolved twice", mid)
			}
			resolved[mid] = true
		}
		var next uint64
		var now sim.Time
		ops := in[4:]
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%7, int(ops[i+1])
			now += sim.Millisecond
			slot := arg % k
			switch op {
			case 0: // send: live slots, plus a repairing slot's ride on its construction
				var jobs []Job
				for s, idxs := range m.Allocate(cfg.Total, nil) {
					if m.Alive(s) || m.Repairing(s) {
						for _, idx := range idxs {
							jobs = append(jobs, Job{Slot: s, Index: int32(idx)})
						}
					}
				}
				next++
				full := m.Full()
				if _, err := m.Track(next, false, jobs, now); (err != nil) != full {
					t.Fatalf("Track with full=%v: %v", full, err)
				}
				if !full {
					held = append(held, next)
				}
			case 1: // probe round
				var jobs []Job
				for _, s := range m.LiveSlots() {
					jobs = append(jobs, Job{Slot: s, Index: int32(s)})
				}
				next++
				if _, err := m.Track(next, true, jobs, now); err != nil {
					t.Fatal(err)
				}
				held = append(held, next)
			case 2: // ack, possibly out of range or for a freed MID
				if len(held) == 0 {
					continue
				}
				mid := held[arg%len(held)]
				if m.Ack(mid, int32(arg%(cfg.Total+2))-1) == AckDelivered {
					resolve(mid)
				}
			case 3: // a round's deadline
				if len(held) == 0 {
					continue
				}
				j := arg % len(held)
				mid := held[j]
				v := m.Expire(mid)
				if !slices.IsSorted(v.Condemn) {
					t.Fatalf("condemned slots out of order: %v", v.Condemn)
				}
				for _, s := range v.Condemn {
					if !m.Condemn(s) {
						t.Fatalf("deadline condemned slot %d, which was down", s)
					}
				}
				if v.Lost {
					resolve(mid)
				}
				if v.Resend {
					jobs, _ := m.Retransmit(mid, now)
					for _, jb := range jobs {
						if !m.Alive(jb.Slot) {
							t.Fatalf("retransmit onto down slot %d", jb.Slot)
						}
					}
				} else {
					held = append(held[:j], held[j+1:]...)
				}
			case 4: // a construction stands
				m.Revive(slot, []netsim.NodeID{netsim.NodeID(2 + 2*slot), netsim.NodeID(3 + 2*slot)})
			case 5: // a rebuild starts, and maybe fails
				if m.Rebuild(slot) && arg&0x80 != 0 {
					m.RebuildFailed(slot)
				}
			case 6: // a forced condemnation
				m.Condemn(slot)
			}
			if cfg.MaxInflight > 0 && m.Inflight() > cfg.MaxInflight {
				t.Fatalf("in flight %d over the bound %d", m.Inflight(), cfg.MaxInflight)
			}
			if live := len(m.LiveSlots()); m.Degraded() != (live < k) {
				t.Fatalf("live slots %v, degraded %v", m.LiveSlots(), m.Degraded())
			}
			for s := 0; s < k; s++ {
				if m.Alive(s) && m.Repairing(s) {
					t.Fatalf("slot %d both live and repairing", s)
				}
				ex := m.Exclude(s)
				if !slices.Contains(ex, cfg.Self) || !slices.Contains(ex, cfg.Responder) {
					t.Fatalf("exclusion set %v of slot %d misses an endpoint", ex, s)
				}
			}
		}
	})
}
