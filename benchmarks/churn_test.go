package main

import (
	"reflect"
	"testing"

	"harmony/internal/worker"
)

func TestOpSequenceIsSeededAndBalanced(t *testing.T) {
	a := opSequence(42, 10*opBlockLen)
	b := opSequence(42, 10*opBlockLen)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different sequences")
	}
	if reflect.DeepEqual(a, opSequence(43, 10*opBlockLen)) {
		t.Fatal("two seeds gave the same sequence")
	}
	for block := 0; block < 10; block++ {
		var got [numOpKinds]int
		for _, op := range a[block*opBlockLen : (block+1)*opBlockLen] {
			got[op]++
		}
		if got != opBlock {
			t.Fatalf("block %d holds %v, want %v", block, got, opBlock)
		}
	}
	// Held depth moves by +1 per submit and -1 per cancel or completion, so
	// it never strays more than a block from where it started.
	depth, worst := 0, 0
	for _, op := range a {
		switch op {
		case opSubmit:
			depth++
		case opCancelHeld, opComplete:
			depth--
		}
		if depth > worst {
			worst = depth
		}
		if -depth > worst {
			worst = -depth
		}
	}
	if worst > opBlock[opSubmit] {
		t.Errorf("held depth strayed %d from its start, more than a block's %d submits", worst, opBlock[opSubmit])
	}
	if got := len(opSequence(1, 100)); got != 100 {
		t.Errorf("asked for 100 ops, got %d", got)
	}
}

func TestInfrastructureErrorsAreTold(t *testing.T) {
	if !isInfrastructure(infra(errDesync, "startJob %s without loadJob", "j1")) {
		t.Error("a wrapped desync is not classified as infrastructure")
	}
	if isInfrastructure(errFailedChecks) {
		t.Error("a failed output check is classified as infrastructure")
	}
	o := newOutcomes()
	o.note(outcomeHeld)
	o.note(outcomeHeld)
	o.note(outcomeCancelRaced)
	o.noteUnexpected("GET /metrics", 418)
	kinds, unexpected := o.snapshot()
	if kinds["held"] != 2 || kinds["cancel_raced"] != 1 || unexpected != 1 || len(o.unexpectedWhat()) != 1 {
		t.Errorf("tally = %v, %d unexpected", kinds, unexpected)
	}
}

// A cancel that catches a job mid-deployment sends its dropJob beside the
// deployment's calls; whatever order they reach the stub fleet in, the job
// must not be left running there.
func TestStubFleetIgnoresDeployCallsAfterDrop(t *testing.T) {
	load := worker.LoadJobArgs{Job: "j", ShardCount: 2}
	start := worker.StartJobArgs{Job: "j", Epoch: 1}
	drop := worker.DropJobArgs{Job: "j"}
	orders := map[string][]any{
		"drop before the last start": {load, load, start, drop, start},
		"drop between the loads":     {load, drop, load, start, start},
		"drop before the first load": {drop, load, load, start, start},
		"drop after the last start":  {load, load, start, start, drop},
	}
	for name, calls := range orders {
		f, err := newStubFleet(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range calls {
			switch a := c.(type) {
			case worker.LoadJobArgs:
				_, _ = f.handleLoad(a)
			case worker.StartJobArgs:
				_, _ = f.handleStart(a)
			case worker.DropJobArgs:
				_, _ = f.handleDrop(a)
			}
		}
		if n := f.runningCount(); n != 0 {
			t.Errorf("%s: fleet still runs %d job(s)", name, n)
		}
		if f.deploying() != 0 {
			t.Errorf("%s: fleet still deploys the job", name)
		}
		if !f.hasStarted("j") {
			t.Errorf("%s: the job still counts as held", name)
		}
		if _, err := f.drainSamples(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		f.close()
	}
}
