package mpd

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"p2pmpi/internal/core"
	"p2pmpi/internal/proto"
	"p2pmpi/internal/transport"
	"p2pmpi/internal/vtime"
)

// TestCollectIgnoresForgedSlotReports drives the collect phase with
// forged completion reports: host a claims host b's slot next to its
// own, and host x, which is not in the job, claims it too. b stays
// silent, so its slot must fail with the no-report reason, while a's
// own slot is delivered.
func TestCollectIgnoresForgedSlotReports(t *testing.T) {
	s := vtime.New()
	t.Cleanup(s.Shutdown)
	m := New(s, nil, Config{
		Self:   proto.PeerInfo{ID: "front", MPDAddr: "front:9000"},
		Shared: &Shared{Programs: programs()},
	})
	sub := &submission{
		m:     m,
		spec:  JobSpec{Program: "hostname", N: 2, R: 1, Timeout: time.Minute},
		jobID: "job",
		used: []proto.PeerInfo{
			{ID: "a", MPDAddr: "a:9000"},
			{ID: "b", MPDAddr: "b:9000"},
		},
		table: []proto.Slot{
			{Rank: 0, Global: 0, HostID: "a", Addr: "a:41000"},
			{Rank: 1, Global: 1, HostID: "b", Addr: "b:41001"},
		},
		done: s.NewMailbox(),
	}
	delivered := func(rank int) proto.SlotResult {
		return proto.SlotResult{Rank: rank, OK: true, Output: []byte("forged")}
	}
	sub.done.Push(&proto.JobDone{JobID: "job", HostID: "x", Results: []proto.SlotResult{delivered(1)}})
	sub.done.Push(&proto.JobDone{JobID: "job", HostID: "a", Results: []proto.SlotResult{delivered(0), delivered(1)}})

	var res *JobResult
	s.Go("submitter", func() { res, _ = sub.result(sub.collect()) })
	s.Wait()

	if res == nil || len(res.Results) != 2 {
		t.Fatalf("result = %+v, want two slots", res)
	}
	if !res.Results[0].OK {
		t.Fatalf("a's own slot not delivered: %+v", res.Results[0])
	}
	if r := res.Results[1]; r.OK || r.Err != "no completion report from host b" {
		t.Fatalf("b's silent slot settled by a forged report: %+v", r)
	}
}

// cancelCounter counts the Cancel frames a daemon sends, by
// destination address.
type cancelCounter struct {
	transport.Network
	mu   sync.Mutex
	sent map[string]int
}

func (n *cancelCounter) Dial(addr string) (transport.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, addr: addr, n: n}, nil
}

func (n *cancelCounter) count(addr string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent[addr]
}

type countingConn struct {
	transport.Conn
	addr string
	n    *cancelCounter
}

func (c *countingConn) Send(m transport.Message) error {
	if proto.Peek(m.Payload) == proto.TCancel {
		c.n.mu.Lock()
		c.n.sent[c.addr]++
		c.n.mu.Unlock()
	}
	return c.Conn.Send(m)
}

// TestLaunchUnwindsEveryKeptOfferOnce: one host answers Prepare with
// NOK (the program is missing from its registry). The launch fails,
// and its one unwind cancels every kept offer exactly once, at its RS
// and at its MPD, so no host keeps an RS hold, a running reservation
// or a prepared job.
func TestLaunchUnwindsEveryKeptOfferOnce(t *testing.T) {
	tb := newTestbed(t, 6, 0, 1)
	counter := &cancelCounter{Network: tb.front.net, sent: map[string]int{}}
	tb.front.net = counter
	tb.boot(t)
	defer tb.close()

	var kept []string
	_, err := tb.submit(t, JobSpec{
		Program: "hostname", N: 4, R: 1, Strategy: core.Spread,
		Timeout: time.Minute,
		OnAllocated: func(a *core.Assignment) {
			for i, h := range a.Hosts {
				if a.U[i] == 0 {
					t.Errorf("host %s kept with u = 0; every kept offer must be used here", h.ID)
				}
				kept = append(kept, h.ID)
			}
			delete(tb.peerByID(kept[0]).cfg.Programs, "hostname")
		},
	})
	if !errors.Is(err, ErrLaunchFailed) || !strings.Contains(err.Error(), "not in registry") {
		t.Fatalf("err = %v, want the refusing host's Prepare NOK", err)
	}
	if len(kept) != 4 {
		t.Fatalf("kept %d offers, want 4", len(kept))
	}
	tb.s.RunFor(10 * time.Second) // let the fire-and-forget cancels land

	for _, id := range kept {
		p := tb.peerByID(id)
		if rs, mpd := counter.count(p.cfg.Self.RSAddr), counter.count(p.cfg.Self.MPDAddr); rs != 1 || mpd != 1 {
			t.Errorf("kept host %s got %d RS and %d MPD cancels, want 1 each", id, rs, mpd)
		}
	}
	for _, p := range tb.peers {
		p.mu.Lock()
		jobs := len(p.jobs)
		p.mu.Unlock()
		if p.RS().Held() != 0 || p.RS().Running() != 0 || jobs != 0 {
			t.Errorf("host %s left held=%d running=%d prepared=%d after the unwind",
				p.cfg.Self.ID, p.RS().Held(), p.RS().Running(), jobs)
		}
	}
}
