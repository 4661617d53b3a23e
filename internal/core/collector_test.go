package core

import (
	"bytes"
	"testing"

	"resilientmix/internal/erasure"
	"resilientmix/internal/sim"
)

func splitFor(t *testing.T, m, n int, msg []byte) []erasure.Segment {
	t.Helper()
	code, err := erasure.New(m, n)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := code.Split(msg)
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

func TestCollectorRebuildsFromAnyM(t *testing.T) {
	msg := []byte("any two of four segments rebuild this message")
	segs := splitFor(t, 2, 4, msg)
	c := NewCollector(sim.Minute)
	if v, r := c.Add(1, 2, 4, 3, segs[3].Data, 0); v != Fresh || r != nil {
		t.Fatalf("first segment: verdict %d, ready %v", v, r)
	}
	v, r := c.Add(1, 2, 4, 1, segs[1].Data, 0)
	if v != Fresh || r == nil {
		t.Fatalf("second segment: verdict %d, ready %v", v, r)
	}
	got, err := r.Decode()
	if err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("decode = %q, %v", got, err)
	}
	if _, _, ok := c.Done(1); ok {
		t.Fatal("message done before Finish")
	}
	c.Finish(1, true)
	if m, n, ok := c.Done(1); !ok || m != 2 || n != 4 {
		t.Fatalf("Done = %d, %d, %v", m, n, ok)
	}
	// Every later segment, new index or not, is a duplicate.
	for _, i := range []int32{0, 1, 2, 3} {
		if v, r := c.Add(1, 2, 4, i, segs[i].Data, 0); v != Duplicate || r != nil {
			t.Fatalf("segment %d after done: verdict %d, ready %v", i, v, r)
		}
	}
}

func TestCollectorFirstSegmentFixesShape(t *testing.T) {
	segs := splitFor(t, 2, 4, []byte("shape"))
	c := NewCollector(sim.Minute)
	c.Add(1, 2, 4, 0, segs[0].Data, 0)
	// A forged 1-of-4 (or 2-of-3) segment must neither count nor
	// trigger a rebuild.
	for _, shape := range [][2]int32{{1, 4}, {2, 3}} {
		if v, r := c.Add(1, shape[0], shape[1], 1, []byte("forged"), 0); v != Rejected || r != nil {
			t.Fatalf("shape %v: verdict %d, ready %v", shape, v, r)
		}
	}
	if v, r := c.Add(1, 2, 4, 2, segs[2].Data, 0); v != Fresh || r == nil {
		t.Fatalf("matching segment: verdict %d, ready %v", v, r)
	}
}

// TestCollectorFirstSegmentFixesLength: a same-shape segment of
// another length is rejected, not stored where it would spoil every
// decode of the message.
func TestCollectorFirstSegmentFixesLength(t *testing.T) {
	msg := []byte("shape")
	segs := splitFor(t, 2, 4, msg)
	segs[1].Data = []byte{7}
	c := NewCollector(sim.Minute)
	var got []byte
	for _, s := range segs {
		v, r, data, err := c.Collect(1, 2, 4, int32(s.Index), s.Data, 0)
		if err != nil {
			t.Fatalf("segment %d: %v", s.Index, err)
		}
		if r != nil {
			got = data
		}
		if bad := s.Index == 1; bad != (v == Rejected) {
			t.Fatalf("segment %d of length %d: verdict %d", s.Index, len(s.Data), v)
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("delivered %q, want %q", got, msg)
	}
}

func TestCollectorRejectsBadShapeAndIndex(t *testing.T) {
	c := NewCollector(sim.Minute)
	for _, in := range [][3]int32{
		{0, 4, 0},                              // needed < 1
		{3, 2, 0},                              // total < needed
		{1, int32(erasure.MaxSegments) + 1, 0}, // too many segments
		{2, 4, -1},                             // negative index
		{2, 4, 4},                              // index past total
	} {
		if v, _ := c.Add(1, in[0], in[1], in[2], []byte("x"), 0); v != Rejected {
			t.Fatalf("%v accepted", in)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("rejected segments left %d entries", c.Len())
	}
}

func TestCollectorCountsDuplicatesOnce(t *testing.T) {
	segs := splitFor(t, 3, 6, []byte("three of six"))
	c := NewCollector(sim.Minute)
	c.Add(1, 3, 6, 0, segs[0].Data, 0)
	if v, _ := c.Add(1, 3, 6, 0, segs[0].Data, 0); v != Duplicate {
		t.Fatalf("repeat verdict %d", v)
	}
	if v, r := c.Add(1, 3, 6, 1, segs[1].Data, 0); v != Fresh || r != nil {
		t.Fatal("two distinct of three made the message ready")
	}
}

func TestCollectorRetriesAfterFailedDecode(t *testing.T) {
	segs := splitFor(t, 2, 4, []byte("retry"))
	c := NewCollector(sim.Minute)
	// A forged segment 0 whose length prefix exceeds the message makes
	// the first decode fail.
	forged := bytes.Repeat([]byte{0xff}, len(segs[0].Data))
	c.Add(1, 2, 4, 0, forged, 0)
	_, r := c.Add(1, 2, 4, 1, segs[1].Data, 0)
	if r == nil {
		t.Fatal("no ready at m distinct")
	}
	// While a decode is out, more segments do not yield a second Ready.
	if _, again := c.Add(1, 2, 4, 2, segs[2].Data, 0); again != nil {
		t.Fatal("second Ready while the first is decoding")
	}
	if _, err := r.Decode(); err == nil {
		t.Fatal("forged segment decoded")
	}
	c.Finish(1, false)
	if _, _, ok := c.Done(1); ok {
		t.Fatal("failed decode marked the message done")
	}
	if _, r := c.Add(1, 2, 4, 3, segs[3].Data, 0); r == nil {
		t.Fatal("no new Ready after a failed decode")
	}
}

func TestCollectorSweptPastTTLHoldsNothing(t *testing.T) {
	const ttl = 10 * sim.Second
	segs := splitFor(t, 2, 4, []byte("forget me"))
	c := NewCollector(ttl)
	c.Add(1, 2, 4, 0, segs[0].Data, 0) // partial
	c.Collect(2, 2, 4, 0, segs[0].Data, 0)
	c.Collect(2, 2, 4, 1, segs[1].Data, 5*sim.Second) // done at 5s
	c.Sweep(ttl)
	if c.Len() != 1 || !c.Holds(2) {
		t.Fatalf("sweep at the TTL kept %d entries; want only the refreshed message", c.Len())
	}
	c.Sweep(5*sim.Second + ttl)
	if c.Len() != 0 {
		t.Fatalf("collector swept past the TTL holds %d entries", c.Len())
	}
}

func TestCollectorSweepDueWaitsForMark(t *testing.T) {
	const ttl = 10 * sim.Second
	c := NewCollector(ttl)
	c.Add(1, 1, 1, 0, []byte("x"), 0)
	c.SweepDue(ttl - 1)
	c.Add(2, 1, 1, 0, []byte("y"), ttl-1)
	c.SweepDue(ttl) // first mark: drops message 1 only
	if c.Holds(1) || !c.Holds(2) {
		t.Fatalf("after first mark: holds 1=%v 2=%v", c.Holds(1), c.Holds(2))
	}
	c.SweepDue(2*ttl - 1) // before the next mark: nothing happens
	if !c.Holds(2) {
		t.Fatal("swept before the mark")
	}
	c.SweepDue(2 * ttl)
	if c.Len() != 0 {
		t.Fatalf("holds %d after the second mark", c.Len())
	}
}
