package simnet

import (
	"fmt"

	"boolcube/internal/fabric"
	"boolcube/internal/machine"
)

// ID returns the node's cube address.
func (nd *Node) ID() uint64 { return nd.id }

// Dims returns the cube dimension n.
func (nd *Node) Dims() int { return nd.eng.n }

// Nodes returns the node count N.
func (nd *Node) Nodes() int { return nd.eng.nodesCount }

// Clock returns the node's current virtual time in µs.
func (nd *Node) Clock() float64 { return nd.clock }

// Params returns the machine model in force.
func (nd *Node) Params() machine.Params { return nd.eng.params }

// Neighbor returns the node's neighbor across dimension d.
func (nd *Node) Neighbor(d int) uint64 {
	nd.checkDim(d)
	return nd.id ^ 1<<uint(d)
}

// submit parks the node's coroutine with a pending operation and returns
// once the engine has executed it and resumed the node: the operation's
// result message and (for sends under fault injection) its error. A yield
// that returns false means the engine failed and is unwinding the node
// (drainAll): the program panics with errPoisoned, which runProg swallows.
func (nd *Node) submit(o op) (fabric.Msg, error) {
	nd.pending = o
	if !nd.yield(struct{}{}) {
		panic(errPoisoned) //cubevet:ignore liberrors -- control-flow sentinel, recovered by runProg
	}
	m := nd.result
	nd.result = fabric.Msg{}
	return m, nd.opErr
}

// resume hands the node the result of its executed operation and switches
// to its coroutine, which runs the program until its next timed operation
// parks it again. A program that has returned (or panicked) leaves the
// pending opDone for the engine to retire.
func (nd *Node) resume(m fabric.Msg) {
	nd.result = m
	if _, ok := nd.next(); !ok {
		nd.pending = op{kind: opDone}
	}
}

// runProg is the body of the node's coroutine. It converts a panic in the
// program into the node's failure; errPoisoned is the drain's own unwind.
func (nd *Node) runProg(prog func(fabric.Node)) {
	defer func() {
		if r := recover(); r != nil && r != errPoisoned {
			if ab, ok := r.(*nodeAbort); ok {
				// Typed unwind from a failed Send under fault injection or
				// Fail; surface the error as-is.
				nd.failure = ab.err
			} else {
				nd.failure = fmt.Errorf("simnet: node %d panicked: %v", nd.id, r)
			}
		}
	}()
	prog(nd)
}

// nodeAbort unwinds a node program when a Send fails under fault
// injection; runProg recovers it and surfaces err as the program's
// failure, so Run returns the typed *FaultError.
type nodeAbort struct{ err error }

// Fail aborts the node's program with a typed error: the engine unwinds
// every node and Run returns err as-is (so callers can errors.Is/As against
// it). This is how node programs surface protocol-level failures the engine
// cannot see — a delivery-audit mismatch, a malformed message — with the
// same clean, deterministic unwind a failed Send gets.
func (nd *Node) Fail(err error) {
	if err == nil {
		panic("simnet: Fail(nil)")
	}
	panic(&nodeAbort{err: err}) //cubevet:ignore liberrors -- typed unwind, recovered by runProg
}

// Send transmits m to the neighbor across dimension dim. The call returns
// when the transmission has been scheduled; the node's send port stays busy
// for the transmission duration, so consecutive sends serialize according
// to the machine's port model. If fault injection defeats the transmission
// (link down, retry budget exhausted) the node program is aborted and Run
// returns the typed *FaultError; programs that handle failures themselves
// use TrySend.
func (nd *Node) Send(dim int, m fabric.Msg) {
	if err := nd.TrySend(dim, m); err != nil {
		panic(&nodeAbort{err: err})
	}
}

// TrySend is Send, but an injected failure (link down past the retry
// budget, every retransmission dropped) is returned as a *FaultError
// instead of aborting the program. The retry/backoff budget has already
// been charged to the node's clock when TrySend returns.
func (nd *Node) TrySend(dim int, m fabric.Msg) error {
	nd.checkDim(dim)
	_, err := nd.submit(op{kind: opSend, dim: dim, msg: m})
	return err
}

// Recv blocks until a message arrives from the neighbor across dimension
// dim and returns it. Messages on one link are delivered in FIFO order.
func (nd *Node) Recv(dim int) fabric.Msg {
	nd.checkDim(dim)
	m, _ := nd.submit(op{kind: opRecv, dim: dim})
	return m
}

// RecvAny blocks until a message arrives on any dimension and returns the
// earliest-arriving one (ties broken by global send order).
func (nd *Node) RecvAny() fabric.Msg {
	m, _ := nd.submit(op{kind: opRecvAny})
	return m
}

// Exchange sends m across dim and receives the partner's message from the
// same dimension. With bi-directional links the send and receive overlap,
// so on a one-port machine an exchange costs the same as one send
// (Section 2 of the paper).
func (nd *Node) Exchange(dim int, m fabric.Msg) fabric.Msg {
	nd.Send(dim, m)
	return nd.Recv(dim)
}

// Copy charges the machine's local copy cost for b bytes (buffer packing or
// local rearrangement, Section 8.1).
func (nd *Node) Copy(b int) {
	if b < 0 {
		panic(fmt.Sprintf("simnet: negative copy size %d", b))
	}
	_, _ = nd.submit(op{kind: opCopy, bytes: b})
}

// CopyElems charges the copy cost of k matrix elements.
func (nd *Node) CopyElems(k int) {
	nd.Copy(k * nd.eng.params.ElemBytes)
}

// Advance moves the node's local clock forward by dt µs of computation.
func (nd *Node) Advance(dt float64) {
	if dt < 0 {
		panic(fmt.Sprintf("simnet: negative time advance %v", dt))
	}
	_, _ = nd.submit(op{kind: opAdvance, dt: dt})
}

func (nd *Node) checkDim(d int) {
	if d < 0 || d >= nd.eng.n {
		panic(fmt.Sprintf("simnet: node %d: dimension %d out of range [0,%d)", nd.id, d, nd.eng.n))
	}
}
