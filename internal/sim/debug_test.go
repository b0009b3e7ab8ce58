package sim

import (
	"fmt"
	"os"
	"testing"

	"harmony/internal/workload"
)

// TestDebugTrace reproduces stalls with verbose state dumps; enabled via
// HARMONY_SIM_DEBUG=1.
func TestDebugTrace(t *testing.T) {
	if os.Getenv("HARMONY_SIM_DEBUG") == "" {
		t.Skip("set HARMONY_SIM_DEBUG=1 to run")
	}
	jobs := Jobs(workload.Base(), nil)
	cfg := Config{Machines: 100, Mode: ModeHarmony, Seed: 1}
	s, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	fmt.Println("err:", err)
	if res != nil {
		fmt.Println("records:", len(res.Records), "failed:", res.Failed)
		return
	}
	for id, sj := range s.jobs {
		fmt.Printf("job %s state=%d iter=%d/%d group=%q target=%q pauseReq=%v profIters=%d\n",
			id, sj.state, sj.run.iter, sj.run.spec.Iterations, s.jobGroup[id],
			sj.targetGroup, sj.run.pauseRequested, sj.profIters)
	}
	fmt.Println("waiting:", s.waitingProfiled, "arrivalQueue:", s.arrivalQueue,
		"running:", s.runningCount, "groups:", len(s.groups))
	for sig, g := range s.groups {
		fmt.Printf("group %q machines=%d jobs=%d closed=%v cpuIdle=%v netIdle=%v\n",
			sig, g.machines, len(g.jobs), g.closed, g.cpu.idle(), g.net.idle())
	}
	fmt.Println("plan:", s.plan.String())
	fmt.Println("engine pending:", s.eng.Len(), "now:", s.eng.Now())
	for id, sj := range s.jobs {
		if sj.state != jobFinished && sj.state != jobFailed {
			fmt.Printf("unfinished %s: state=%d phase=%d iter=%d/%d alpha=%.2f reloadReady=%v target=%q group=%q\n",
				id, sj.state, sj.run.phase, sj.run.iter, sj.run.spec.Iterations,
				sj.run.alpha, sj.run.reloadReadyAt, sj.targetGroup, s.jobGroup[id])
		}
	}
}
