//go:build go1.23

package simnet

import (
	"iter"

	"boolcube/internal/fabric"
)

// spawn makes prog the node's coroutine without running it; the first
// resume runs the prologue up to the first timed operation. This is the one
// use of iter.Pull (Go 1.23), kept in its own file so the build constraint
// raises the language version for it alone while the module stays at go
// 1.22.
func (nd *Node) spawn(prog func(fabric.Node)) {
	nd.next, nd.stop = iter.Pull(func(yield func(struct{}) bool) {
		nd.yield = yield
		nd.runProg(prog)
	})
}
