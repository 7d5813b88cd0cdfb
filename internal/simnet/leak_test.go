package simnet

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"boolcube/internal/fabric"
	"boolcube/internal/fault"
	"boolcube/internal/machine"
)

// settleGoroutines waits for runtime.NumGoroutine to come back down to base
// and fails the test, with every goroutine's stack, if it does not. Node
// coroutines are goroutines, so a parked node the engine forgot to stop
// shows up here.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutine(s) leaked (%d running, baseline %d):\n%s", n-base, n, base, buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunLeaksNoGoroutines drives every engine exit path on every
// scheduler and checks that Run leaves no goroutine behind: each node
// coroutine must either finish or be stopped by drainAll.
func TestRunLeaksNoGoroutines(t *testing.T) {
	errBoom := errors.New("boom")
	paths := []struct {
		name  string
		setup func(e *Engine)
		prog  func(fabric.Node)
		want  func(error) bool
	}{
		{"ok", nil, ringProg(2), func(err error) bool { return err == nil }},
		{"deadlock", nil, func(nd fabric.Node) {
			if nd.ID() != 0 {
				nd.Recv(0) // node 0 never sends
			}
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "deadlock") }},
		{"deadline", func(e *Engine) { e.SetDeadline(5) }, ringProg(8),
			func(err error) bool { return errors.Is(err, fabric.ErrDeadline) }},
		{"prologue-panic", nil, func(nd fabric.Node) {
			if nd.ID() == 1 {
				panic("boom")
			}
			ringProg(2)(nd)
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "panicked: boom") }},
		{"midrun-panic", nil, func(nd fabric.Node) {
			nd.Exchange(0, fabric.Msg{Data: []float64{1}})
			if nd.ID() == 1 {
				panic("boom")
			}
			ringProg(2)(nd)
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "panicked: boom") }},
		{"fail", nil, func(nd fabric.Node) {
			nd.Exchange(0, fabric.Msg{Data: []float64{1}})
			if nd.ID() == 2 {
				nd.Fail(errBoom)
			}
			ringProg(2)(nd)
		}, func(err error) bool { return errors.Is(err, errBoom) }},
		{"fault-abort", func(e *Engine) {
			fp, err := fault.Compile(fault.SingleLinkDown(0, 0), e.Dims())
			if err != nil {
				t.Fatal(err)
			}
			e.SetFaults(fp, fabric.RetryPolicy{})
		}, ringProg(2), func(err error) bool { return errors.Is(err, fabric.ErrLinkDown) }},
		{"crash-stop", func(e *Engine) {
			fp, err := fault.Compile(fault.NodeCrash(5, 3), e.Dims())
			if err != nil {
				t.Fatal(err)
			}
			e.SetFaults(fp, fabric.RetryPolicy{})
		}, ringProg(8), func(err error) bool { return errors.Is(err, fabric.ErrNodeDown) }},
	}
	schedulers := []struct {
		name  string
		setup func(e *Engine)
	}{
		{"indexed", func(e *Engine) { e.SetShards(-1) }},
		{"reference", func(e *Engine) { e.SetReferenceScheduler(true) }},
		{"sharded-P1", func(e *Engine) { e.SetShards(1) }},
		{"sharded-P2", func(e *Engine) { e.SetShards(2) }},
	}
	for _, s := range schedulers {
		for _, p := range paths {
			t.Run(s.name+"/"+p.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				e := ideal(t, 3, machine.OnePort)
				s.setup(e)
				if p.setup != nil {
					p.setup(e)
				}
				if err := e.Run(p.prog); !p.want(err) {
					t.Fatalf("Run() = %v: wrong exit path", err)
				}
				settleGoroutines(t, base)
			})
		}
	}
}
