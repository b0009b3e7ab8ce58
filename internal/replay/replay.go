// Package replay re-executes a captured master snapshot's decision
// journal deterministically and reports model drift (DESIGN.md §16).
//
// The replayer is a pure state machine: it walks the journal in sequence
// order, reconstructs each decision's group from the snapshot's job
// metrics, re-runs the §IV-B2 performance model over that group, and
// compares three quantities per decision — the prediction the live
// master stamped at decision time, the prediction the model produces
// now, and the measured values the journal carries. Identical inputs
// produce bit-identical reports: the package never reads the clock,
// never draws randomness, and iterates every collection in sorted
// order.
//
// What-if overrides (machine count, NetModel on/off, a replacement
// queue policy) re-evaluate the same decision sequence under changed
// assumptions; placement history is kept as recorded — overrides change
// the model and the policy verdicts, not the placements, which is what
// makes the comparison to the journal meaningful.
package replay

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"harmony/internal/core"
	"harmony/internal/fair"
	"harmony/internal/master"
)

// Overrides are the what-if knobs. The zero value replays the snapshot
// exactly as captured.
type Overrides struct {
	// Machines overrides the cluster size for quota arithmetic when
	// > 0. Recorded placements keep their captured sizes — a 4-worker
	// group stays a 4-worker group.
	Machines int `json:"machines,omitempty"`
	// NetModel toggles the §IV-B3 network-aware model independently of
	// what the capture ran with.
	NetModel *bool `json:"net_model,omitempty"`
	// Queues replaces the fair-queue policy with a fair.ParseConfigs
	// spec ("name[:key=value,...][;name...]", keys weight/quota/
	// over-quota-weight/parent); empty keeps the captured policy.
	Queues string `json:"queues,omitempty"`
}

func (o Overrides) active() bool {
	return o.Machines > 0 || o.NetModel != nil || o.Queues != ""
}

// Decision is one journal event's calibration row: the live master's
// prediction, the replayer's recomputation, the measured values, and
// the pairwise error ratios between them.
type Decision struct {
	Seq   uint64 `json:"seq"`
	Kind  string `json:"kind"`
	Job   string `json:"job,omitempty"`
	Group string `json:"group,omitempty"`
	// Journal* is what the live master predicted at decision time;
	// Replay* what this replay's model predicts for the reconstructed
	// group; Measured* what the journal recorded from the running job.
	JournalIterSeconds  float64 `json:"journal_iter_seconds,omitempty"`
	ReplayIterSeconds   float64 `json:"replay_iter_seconds,omitempty"`
	MeasuredIterSeconds float64 `json:"measured_iter_seconds,omitempty"`
	JournalCPUUtil      float64 `json:"journal_cpu_util,omitempty"`
	ReplayCPUUtil       float64 `json:"replay_cpu_util,omitempty"`
	MeasuredCPUUtil     float64 `json:"measured_cpu_util,omitempty"`
	JournalNetUtil      float64 `json:"journal_net_util,omitempty"`
	ReplayNetUtil       float64 `json:"replay_net_util,omitempty"`
	MeasuredNetUtil     float64 `json:"measured_net_util,omitempty"`
	// IterErrRatio is |journal − measured| / measured — how wrong the
	// live prediction was. ReplayIterErrRatio is the same for the replay
	// prediction. DriftRatio is |replay − journal| / journal — how far
	// the model's view of this decision has moved since capture (from
	// profile refinement, or deliberately from a what-if override).
	IterErrRatio       float64 `json:"iter_err_ratio,omitempty"`
	ReplayIterErrRatio float64 `json:"replay_iter_err_ratio,omitempty"`
	DriftRatio         float64 `json:"drift_ratio,omitempty"`
	// QuotaFlip marks decisions whose policy verdict changes under the
	// overrides: "would_admit" on a quota hold the override policy would
	// let through, "would_gate" on an admit it would have held.
	QuotaFlip string `json:"quota_flip,omitempty"`
	Note      string `json:"note,omitempty"`
}

// GroupKindError aggregates calibration error over every decision that
// placed a job on one worker set: the mean error ratios per
// (group, kind) pair. These rows back the
// harmony_model_error_ratio{group,kind} gauges.
type GroupKindError struct {
	Group              string  `json:"group"`
	Kind               string  `json:"kind"`
	Decisions          int     `json:"decisions"`
	MeanIterErrRatio   float64 `json:"mean_iter_err_ratio"`
	MeanReplayErrRatio float64 `json:"mean_replay_err_ratio"`
	MeanDriftRatio     float64 `json:"mean_drift_ratio"`
}

// Overall summarizes the whole replay.
type Overall struct {
	Events             int     `json:"events"`
	Modeled            int     `json:"modeled"`
	Measured           int     `json:"measured"`
	MeanIterErrRatio   float64 `json:"mean_iter_err_ratio"`
	MeanReplayErrRatio float64 `json:"mean_replay_err_ratio"`
	MeanDriftRatio     float64 `json:"mean_drift_ratio"`
}

// WhatIf reports the override evaluation.
type WhatIf struct {
	Machines int `json:"machines"`
	// QuotaWorkers is each queue's guaranteed worker count under the
	// override policy and machine count.
	QuotaWorkers map[string]int `json:"quota_workers,omitempty"`
	// HoldsLifted counts quota holds the override policy would admit;
	// AdmitsGated counts recorded admissions it would have held. Both
	// are policy-level verdicts: quota headroom and borrow gating are
	// re-evaluated, gang placement and Eq. 1 scoring are not re-run.
	HoldsLifted int `json:"holds_lifted"`
	AdmitsGated int `json:"admits_gated"`
}

// Report is the full calibration output of one replay.
type Report struct {
	SchemaVersion int  `json:"schema_version"`
	Machines      int  `json:"machines"`
	NetModel      bool `json:"net_model"`
	// Decisions holds one calibration row per journal event, in
	// sequence order.
	Decisions []Decision `json:"decisions,omitempty"`
	// Groups aggregates per (worker set, decision kind), sorted by
	// group then kind.
	Groups  []GroupKindError `json:"groups,omitempty"`
	Overall Overall          `json:"overall"`
	WhatIf  *WhatIf          `json:"what_if,omitempty"`
	// Skipped lists events the replayer could not model (job evicted
	// from the snapshot, unknown kind), so silent gaps are visible.
	Skipped []string `json:"skipped,omitempty"`
}

// Encode renders the report as canonical indented JSON. Reports from
// identical (snapshot, overrides) inputs encode to identical bytes —
// the determinism contract the property test pins.
func (r *Report) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Load decodes and schema-checks a snapshot.
func Load(data []byte) (*master.Snapshot, error) {
	var s master.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("replay: decode snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return &s, nil
}

// placementKinds are the journal kinds whose Group field is the job's
// new worker placement; every other kind leaves placement untouched.
var placementKinds = map[string]bool{
	master.EventAdmitInitial: true,
	master.EventAdmitArrival: true,
	master.EventQueueDrain:   true,
	master.EventMigrate:      true,
	master.EventResume:       true,
}

// removalKinds clear the job's placement; preempt and recover also put it
// back in the held queue.
var removalKinds = map[string]bool{
	master.EventCancel:   true,
	master.EventComplete: true,
	master.EventPreempt:  true,
	master.EventRecover:  true,
}

// Run replays the snapshot's journal and produces the calibration
// report. It is deterministic: same snapshot bytes and overrides, same
// report bytes.
func Run(s *master.Snapshot, ov Overrides) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	netModel := s.Options.NetModel
	if ov.NetModel != nil {
		netModel = *ov.NetModel
	}
	machines := len(s.Workers)
	if ov.Machines > 0 {
		machines = ov.Machines
	}
	rep := &Report{
		SchemaVersion: s.SchemaVersion,
		Machines:      machines,
		NetModel:      netModel,
	}

	jobs := make(map[string]master.SnapshotJob, len(s.Jobs))
	infos := make(map[string]core.JobInfo, len(s.Jobs))
	for _, j := range s.Jobs {
		jobs[j.Name] = j
		info := core.JobInfo{
			ID: j.Name, Comp: j.CompSeconds, Net: j.NetSeconds,
			InputGB: j.InputGB, ModelGB: j.ModelGB, WorkGB: j.WorkGB,
			JVMHeapFactor: j.JVMHeapFactor, PullFrac: j.PullFrac,
		}
		// Same gate the live master applies (jobInfoLocked): the fitted
		// serial floor only feeds the model under the net-aware scheduler.
		if netModel {
			info.CompFloor = j.CompFloorSeconds
		}
		infos[j.Name] = info
	}

	var sched *fair.Scheduler
	var err error
	if ov.Queues != "" {
		cfgs, perr := fair.ParseConfigs(ov.Queues)
		if perr != nil {
			return nil, fmt.Errorf("replay: queue override: %w", perr)
		}
		sched, err = fair.New(cfgs...)
	} else {
		sched, err = fair.New(queueConfigs(s.Queues)...)
	}
	if err != nil {
		return nil, fmt.Errorf("replay: rebuild scheduler: %w", err)
	}

	if ov.active() {
		rep.WhatIf = &WhatIf{Machines: machines, QuotaWorkers: make(map[string]int)}
		for _, name := range sched.Names() {
			rep.WhatIf.QuotaWorkers[name] = sched.QuotaWorkers(name, machines)
		}
	}

	// placed maps job → sorted worker set; held tracks pending jobs for
	// the policy what-if.
	placed := make(map[string][]string)
	held := make(map[string]bool)

	type agg struct {
		n              int
		iter, replay   float64
		iterN, replayN int
		drift          float64
		driftN         int
	}
	groups := make(map[string]*agg)
	var overall agg

	for _, e := range s.Journal {
		d := Decision{
			Seq: e.Seq, Kind: e.Kind, Job: e.Job, Note: e.Note,
			JournalIterSeconds:  e.PredictedIterSeconds,
			JournalCPUUtil:      e.PredictedCPUUtil,
			JournalNetUtil:      e.PredictedNetUtil,
			MeasuredIterSeconds: e.MeasuredIterSeconds,
			MeasuredCPUUtil:     e.MeasuredCPUUtil,
			MeasuredNetUtil:     e.MeasuredNetUtil,
		}
		missing := e.Job != "" && jobs[e.Job].Name == ""

		// State transitions first, so the reconstruction below sees the
		// post-decision placement — the same group the live stamp modeled.
		switch {
		case placementKinds[e.Kind]:
			if len(e.Group) > 0 {
				ws := append([]string(nil), e.Group...)
				sort.Strings(ws)
				placed[e.Job] = ws
			}
			delete(held, e.Job)
		case e.Kind == master.EventHold:
			// The hold that compensates a failed deployment takes the
			// placement back: the job never ran there. A submission
			// rejected that way is not in the snapshot and holds nothing.
			if strings.HasPrefix(e.Note, master.NoteDeployFailed) {
				delete(placed, e.Job)
			}
			if !missing {
				held[e.Job] = true
			}
		case e.Kind == master.EventCancelHeld:
			delete(held, e.Job)
		case removalKinds[e.Kind]:
			delete(placed, e.Job)
			if e.Kind == master.EventPreempt || e.Kind == master.EventRecover {
				held[e.Job] = true
			}
		}

		switch {
		case missing:
			rep.Skipped = append(rep.Skipped,
				fmt.Sprintf("seq %d (%s): job %q not in snapshot", e.Seq, e.Kind, e.Job))
		case placed[e.Job] != nil:
			ws := placed[e.Job]
			d.Group = strings.Join(ws, ",")
			g := core.Group{Machines: len(ws)}
			for _, name := range sortedKeys(placed) {
				if d.Group == strings.Join(placed[name], ",") {
					g.Jobs = append(g.Jobs, infos[name])
				}
			}
			p := core.PredictGroup(g, netModel)
			d.ReplayIterSeconds = p.IterSeconds
			d.ReplayCPUUtil, d.ReplayNetUtil = p.CPUUtil, p.NetUtil
		case removalKinds[e.Kind] && len(e.Group) > 0:
			// A removal clears the placement; keep the recorded set as the
			// row's label so its frozen measurements land on the right
			// (group, kind) aggregate.
			ws := append([]string(nil), e.Group...)
			sort.Strings(ws)
			d.Group = strings.Join(ws, ",")
		}

		d.IterErrRatio = errRatio(d.JournalIterSeconds, d.MeasuredIterSeconds)
		d.ReplayIterErrRatio = errRatio(d.ReplayIterSeconds, d.MeasuredIterSeconds)
		d.DriftRatio = errRatio(d.ReplayIterSeconds, d.JournalIterSeconds)

		if ov.active() {
			d.QuotaFlip = quotaFlip(e, jobs, placed, held, sched, machines, rep)
		}

		if d.Group != "" {
			key := d.Group + "\x00" + d.Kind
			a := groups[key]
			if a == nil {
				a = &agg{}
				groups[key] = a
			}
			for _, t := range []*agg{a, &overall} {
				t.n++
				if d.IterErrRatio > 0 {
					t.iter += d.IterErrRatio
					t.iterN++
				}
				if d.ReplayIterErrRatio > 0 {
					t.replay += d.ReplayIterErrRatio
					t.replayN++
				}
				if d.DriftRatio > 0 {
					t.drift += d.DriftRatio
					t.driftN++
				}
			}
		}
		rep.Decisions = append(rep.Decisions, d)
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := groups[k]
		gk, kind, _ := strings.Cut(k, "\x00")
		rep.Groups = append(rep.Groups, GroupKindError{
			Group: gk, Kind: kind, Decisions: a.n,
			MeanIterErrRatio:   mean(a.iter, a.iterN),
			MeanReplayErrRatio: mean(a.replay, a.replayN),
			MeanDriftRatio:     mean(a.drift, a.driftN),
		})
	}
	rep.Overall = Overall{
		Events:             len(s.Journal),
		Modeled:            overall.n,
		Measured:           overall.iterN,
		MeanIterErrRatio:   mean(overall.iter, overall.iterN),
		MeanReplayErrRatio: mean(overall.replay, overall.replayN),
		MeanDriftRatio:     mean(overall.drift, overall.driftN),
	}
	return rep, nil
}

// quotaFlip re-evaluates one decision's quota verdict under the
// override policy by asking the admission kernel for the queue's borrow
// cap (fair.Scheduler.Cap): a quota hold whose gang now fits under the cap
// and in the free cluster capacity flips to "would_admit"; a recorded
// admission larger than the cap flips to "would_gate". Gang placement and
// Eq. 1 scoring are deliberately not re-run — this is the policy layer
// only.
func quotaFlip(e master.Event, jobs map[string]master.SnapshotJob,
	placed map[string][]string, held map[string]bool,
	sched *fair.Scheduler, machines int, rep *Report) string {

	j, ok := jobs[e.Job]
	if !ok {
		return ""
	}
	queue := queueOf(j, sched)
	v := fair.View{Total: machines, Free: machines, Usage: make(fair.Usage)}
	for name, ws := range placed {
		v.Usage[queueOf(jobs[name], sched)] += len(ws)
		v.Free -= len(ws)
	}
	for name := range held {
		hj := jobs[name]
		v.Held = append(v.Held, fair.Held{
			Job: name, Queue: queueOf(hj, sched), Priority: hj.Priority,
			Seq: hj.ArrivalSeq, Demand: max(hj.MinWorkers, 1), Resumable: hj.Resumable,
		})
	}

	switch {
	case e.Kind == master.EventHold && strings.Contains(e.Note, fair.HoldQuota):
		demand := max(j.MinWorkers, 1)
		if demand <= sched.Cap(v, queue) && demand <= v.Free {
			rep.WhatIf.HoldsLifted++
			return "would_admit"
		}
	case e.Kind == master.EventAdmitArrival || e.Kind == master.EventQueueDrain:
		// The admitted job is already in usage (state applied first); the
		// verdict asks whether the policy would have let it in.
		size := len(e.Group)
		v.Usage[queue] -= size
		if size > 0 && size > sched.Cap(v, queue) {
			rep.WhatIf.AdmitsGated++
			return "would_gate"
		}
	}
	return ""
}

// queueOf is the queue a job counts against under the (possibly
// overridden) policy: a queue the policy does not have falls back to the
// default one.
func queueOf(j master.SnapshotJob, sched *fair.Scheduler) string {
	if j.Queue == "" || !sched.Has(j.Queue) {
		return fair.DefaultQueue
	}
	return j.Queue
}

// queueConfigs rebuilds the captured policy's declarations from the
// snapshot's queue views.
func queueConfigs(qs []master.QueueView) []fair.QueueConfig {
	out := make([]fair.QueueConfig, 0, len(qs))
	for _, q := range qs {
		out = append(out, fair.QueueConfig{
			Name: q.Name, Parent: q.Parent, Weight: q.Weight,
			Quota: q.Quota, OverQuotaWeight: q.OverQuotaWeight,
		})
	}
	return out
}

// errRatio is |a − b| / b, zero when either side is unavailable.
func errRatio(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Abs(a-b) / b
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func sortedKeys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
