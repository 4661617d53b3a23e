package livenet

import (
	"bufio"
	"context"
	"errors"
	"net"
	"strconv"
	"sync/atomic"
	"time"

	"resilientmix/internal/netsim"
	"resilientmix/internal/obs"
	"resilientmix/internal/retrypolicy"
)

// This file is the node's link layer. Every outbound frame to a peer
// rides one long-lived TCP connection (the peer's link), dialed on the
// first frame and reused until either side closes it; every inbound
// connection is read frame after frame until it closes or idles out.
// Fault checks stay per frame (see sendCtx), so a blackhole, drop or
// delay applies to an established link exactly as to a fresh one.

// linkIdleTimeout closes an inbound connection that carries no frame
// for this long.
const linkIdleTimeout = 30 * time.Second

var errNodeClosed = errors.New("livenet: node closed")

// link is the outbound connection slot for one peer. sem is a one-slot
// write lock taken under the sender's context, so no sender waits past
// its deadline behind another sender's dial or write. cur is nil until
// the first frame dials; it is replaced only under sem, and may be read
// anywhere.
type link struct {
	sem chan struct{}
	cur atomic.Pointer[linkConn]
	// peerOut counts frames written to the peer (live.peer_out.<id>);
	// anonctl's cluster aggregation uses the family to spot silent
	// relays.
	peerOut *obs.Counter
}

// linkConn is one dialed connection of a link.
type linkConn struct {
	conn net.Conn
	w    *bufio.Writer // guarded by link.sem
	// dead is set once the peer closes or resets the connection.
	dead atomic.Bool
}

// open reports whether the link holds a connection the peer has not
// closed.
func (l *link) open() bool {
	lc := l.cur.Load()
	return lc != nil && !lc.dead.Load()
}

// linkTo returns the peer's link slot, creating it for a roster peer.
func (n *Node) linkTo(to netsim.NodeID) (*link, error) {
	n.linksMu.Lock()
	l, ok := n.links[to]
	n.linksMu.Unlock()
	if ok {
		return l, nil
	}
	if _, err := n.roster().Peer(to); err != nil {
		return nil, err
	}
	n.linksMu.Lock()
	defer n.linksMu.Unlock()
	if l, ok := n.links[to]; ok {
		return l, nil
	}
	l = &link{
		sem:     make(chan struct{}, 1),
		peerOut: n.reg.Counter("live.peer_out." + strconv.Itoa(int(to))),
	}
	n.links[to] = l
	return l, nil
}

// writeLink writes one frame on peer to's link l, dialing it under the
// DialRetry policy when it has no open connection. A write error closes
// the connection and is not retried: the frame may have partially left,
// and replaying it risks duplicate relay state.
func (n *Node) writeLink(ctx context.Context, l *link, to netsim.NodeID, f frame) error {
	select {
	case l.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-l.sem }()
	return n.cfg.DialRetry.Do(ctx, func(ctx context.Context) error {
		lc := l.cur.Load()
		if lc == nil || lc.dead.Load() {
			var err error
			if lc, err = n.dialLink(ctx, to, l); err != nil {
				return err
			}
		}
		deadline := time.Now().Add(n.cfg.DialTimeout)
		if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
			deadline = d
		}
		lc.conn.SetWriteDeadline(deadline)
		err := writeFrame(lc.w, f)
		if err == nil {
			err = lc.w.Flush()
		}
		if err != nil {
			l.cur.Store(nil)
			lc.conn.Close()
			return retrypolicy.Permanent(err)
		}
		return nil
	})
}

// dialLink dials peer to and installs the connection as its link's
// current one, with a watcher that marks it dead when the peer closes
// it. Callers hold l.sem.
func (n *Node) dialLink(ctx context.Context, to netsim.NodeID, l *link) (*linkConn, error) {
	dctx, cancel := context.WithTimeout(ctx, n.cfg.DialTimeout)
	defer cancel()
	conn, err := n.roster().dialContext(dctx, to)
	if err != nil {
		return nil, err
	}
	if !n.track(conn) {
		conn.Close()
		return nil, retrypolicy.Permanent(errNodeClosed)
	}
	n.m.linksDialed.Inc()
	lc := &linkConn{conn: conn, w: bufio.NewWriter(conn)}
	l.cur.Store(lc)
	go n.watchLink(lc)
	return lc, nil
}

// watchLink marks an outbound connection dead once the peer closes or
// resets it, so the next frame redials instead of vanishing into a dead
// socket. Peers never write on a link, so any read result ends it.
func (n *Node) watchLink(lc *linkConn) {
	defer n.wg.Done()
	defer n.untrack(lc.conn)
	var b [1]byte
	lc.conn.Read(b[:])
	lc.dead.Store(true)
}

// serveConn reads frames from one inbound connection until it closes,
// errs or idles past linkIdleTimeout. Frames are handled concurrently:
// handlers send synchronously, and handling inline could deadlock two
// relays forwarding to each other over full sockets.
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer n.untrack(conn)
	br := bufio.NewReader(conn)
	for {
		conn.SetReadDeadline(time.Now().Add(linkIdleTimeout))
		f, err := readFrame(br)
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handle(f)
		}()
	}
}

// track registers a connection for Close and takes a wait-group slot
// for the goroutine that will serve it. It refuses once Close has
// begun.
func (n *Node) track(conn net.Conn) bool {
	n.linksMu.Lock()
	defer n.linksMu.Unlock()
	if n.closed() {
		return false
	}
	n.conns[conn] = struct{}{}
	n.wg.Add(1)
	return true
}

// untrack closes a connection and forgets it.
func (n *Node) untrack(conn net.Conn) {
	conn.Close()
	n.linksMu.Lock()
	delete(n.conns, conn)
	n.linksMu.Unlock()
}

// closeConns closes every tracked connection, ending their readers and
// watchers. Close calls it after quit is closed, so no new connection
// can be tracked afterwards.
func (n *Node) closeConns() {
	n.linksMu.Lock()
	defer n.linksMu.Unlock()
	for conn := range n.conns {
		conn.Close()
	}
}

// openLink reports whether the node holds an open outbound link to any
// peer other than itself.
func (n *Node) openLink() bool {
	n.linksMu.Lock()
	defer n.linksMu.Unlock()
	for id, l := range n.links {
		if id != n.cfg.ID && l.open() {
			return true
		}
	}
	return false
}
