package subtask

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/obs"
)

func TestKindString(t *testing.T) {
	if Comp.String() != "COMP" || Pull.String() != "PULL" || Push.String() != "PUSH" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "Subtask(?)" {
		t.Error("unknown kind name wrong")
	}
}

func TestCompSubtasksSerialize(t *testing.T) {
	e := NewExecutor()
	defer e.Close()
	var concurrent, maxConcurrent int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		err := e.SubmitAt(Comp, "j", 0, func() {
			c := atomic.AddInt32(&concurrent, 1)
			for {
				m := atomic.LoadInt32(&maxConcurrent)
				if c <= m || atomic.CompareAndSwapInt32(&maxConcurrent, m, c) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			atomic.AddInt32(&concurrent, -1)
		}, wg.Done)
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := atomic.LoadInt32(&maxConcurrent); got != 1 {
		t.Errorf("max concurrent COMP subtasks = %d, want exactly 1 (§IV-A)", got)
	}
}

func TestCommSubtasksRunTwoWide(t *testing.T) {
	e := NewExecutor()
	defer e.Close()
	var concurrent, maxConcurrent int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		kind := Pull
		if i%2 == 1 {
			kind = Push
		}
		wg.Add(1)
		err := e.SubmitAt(kind, "j", 0, func() {
			c := atomic.AddInt32(&concurrent, 1)
			for {
				m := atomic.LoadInt32(&maxConcurrent)
				if c <= m || atomic.CompareAndSwapInt32(&maxConcurrent, m, c) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			atomic.AddInt32(&concurrent, -1)
		}, wg.Done)
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := atomic.LoadInt32(&maxConcurrent); got > 2 {
		t.Errorf("max concurrent COMM subtasks = %d, want <= 2 (primary+secondary)", got)
	}
	if got := atomic.LoadInt32(&maxConcurrent); got < 2 {
		t.Errorf("max concurrent COMM subtasks = %d, want the secondary lane used", got)
	}
}

func TestCompAndCommOverlap(t *testing.T) {
	e := NewExecutor()
	defer e.Close()
	var inComp, overlapped int32
	var wg sync.WaitGroup
	wg.Add(2)
	if err := e.SubmitAt(Comp, "a", 0, func() {
		atomic.StoreInt32(&inComp, 1)
		time.Sleep(30 * time.Millisecond)
		atomic.StoreInt32(&inComp, 0)
	}, wg.Done); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitAt(Pull, "b", 0, func() {
		time.Sleep(5 * time.Millisecond)
		if atomic.LoadInt32(&inComp) == 1 {
			atomic.StoreInt32(&overlapped, 1)
		}
	}, wg.Done); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if atomic.LoadInt32(&overlapped) != 1 {
		t.Error("COMM subtask did not overlap the COMP subtask")
	}
}

func TestFIFOWithinResource(t *testing.T) {
	e := NewExecutor()
	defer e.Close()
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		if err := e.SubmitAt(Comp, "j", 0, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}, wg.Done); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i := range order {
		if order[i] != i {
			t.Fatalf("COMP order %v, want FIFO", order)
		}
	}
}

func TestStatsAndUtilization(t *testing.T) {
	e := NewExecutor()
	defer e.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	if err := e.SubmitAt(Comp, "j", 0, func() { time.Sleep(10 * time.Millisecond) }, wg.Done); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitAt(Push, "j", 0, func() { time.Sleep(10 * time.Millisecond) }, wg.Done); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st := e.Stats()
	if st.Executed[Comp] != 1 || st.Executed[Push] != 1 {
		t.Errorf("executed = %v", st.Executed)
	}
	if st.CPUBusy <= 0 || st.NetBusy <= 0 {
		t.Error("busy accounting missing")
	}
	cpu, net := e.Utilization()
	if cpu <= 0 || cpu > 1 || net <= 0 || net > 1 {
		t.Errorf("utilization out of range: %v, %v", cpu, net)
	}
}

func TestQueueDepths(t *testing.T) {
	e := NewExecutor()
	defer e.Close()
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	if err := e.SubmitAt(Comp, "j", 0, func() { <-block }, wg.Done); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.SubmitAt(Comp, "j", 0, func() {}, nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for {
		cpu, _ := e.QueueDepths()
		if cpu == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached 3")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
}

func TestSubmitAfterClose(t *testing.T) {
	e := NewExecutor()
	e.Close()
	if err := e.SubmitAt(Comp, "j", 0, func() {}, nil); err != ErrClosed {
		t.Errorf("Submit after close = %v, want ErrClosed", err)
	}
	e.Close() // double close is a no-op
}

// TestExecutorRecordsSpans pins the tracing hook: with a recorder
// attached, each subtask emits an execution span carrying its job and
// iteration plus a slot-wait span for its time in the queue.
func TestExecutorRecordsSpans(t *testing.T) {
	e := NewExecutor()
	defer e.Close()
	r := obs.NewRecorder(64)
	e.SetRecorder(r)
	var wg sync.WaitGroup
	wg.Add(2)
	if err := e.SubmitAt(Comp, "a", 7, func() { time.Sleep(2 * time.Millisecond) }, wg.Done); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitAt(Pull, "b", 3, func() {}, wg.Done); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	spans := r.SpansAfter(0, nil)
	byPhase := map[obs.Phase][]obs.Span{}
	for _, s := range spans {
		byPhase[s.Phase] = append(byPhase[s.Phase], s)
	}
	comp := byPhase[obs.PhaseComp]
	if len(comp) != 1 || comp[0].Job != "a" || comp[0].Iter != 7 {
		t.Errorf("comp spans = %+v", comp)
	}
	if comp[0].End <= comp[0].Start {
		t.Errorf("comp span not positive: %+v", comp[0])
	}
	pull := byPhase[obs.PhasePull]
	if len(pull) != 1 || pull[0].Job != "b" || pull[0].Iter != 3 {
		t.Errorf("pull spans = %+v", pull)
	}
	if len(byPhase[obs.PhaseWaitCPU]) != 1 || len(byPhase[obs.PhaseWaitNet]) != 1 {
		t.Errorf("missing slot-wait spans: %+v", byPhase)
	}
}
