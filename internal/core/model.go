// Package core implements the paper's primary contribution: the
// performance model for co-located Parameter-Server jobs (Eq. 1–4 of
// §IV-B2), the job-grouping and machine-allocation scheduling algorithm
// (Algorithm 1, §IV-B3), and the dynamic regrouping rules that respond to
// job arrivals and completions (§IV-B4).
//
// The package operates purely on profiled metrics and returns declarative
// plans; executing a plan (moving jobs, allocating machines, pausing and
// migrating) is the runtime's concern.
package core

import (
	"fmt"
	"math"
	"strings"
)

// JobInfo is what the scheduler knows about one job: its identity, its
// profiled cost metrics, and its memory footprint parameters.
type JobInfo struct {
	// ID uniquely names the job.
	ID string
	// Comp is the profiled aggregate COMP cost in machine-seconds per
	// iteration; the COMP subtask time at DoP m is Comp/m (Eq. 2).
	Comp float64
	// Net is the profiled per-machine COMM (PULL+PUSH) seconds per
	// iteration.
	Net float64
	// InputGB, ModelGB and WorkGB parameterize the per-machine memory
	// footprint; see MinMemoryGB. Zero values disable memory feasibility
	// checks for the job.
	InputGB float64
	ModelGB float64
	WorkGB  float64
	// JVMHeapFactor inflates raw data sizes to heap footprints; zero
	// means raw sizes are used as-is.
	JVMHeapFactor float64
	// CompFloor is the serial, non-parallelizable part of the COMP
	// subtask in seconds per iteration, fitted from observations at
	// multiple DoPs (Synergy-style sensitivity). Jobs with a large floor
	// gain little from extra machines, so the water-filling allocation
	// hands their machines to more scalable jobs. Zero reproduces Eq. 2
	// exactly.
	CompFloor float64
	// PullFrac is the PULL share of Net, splitting the per-iteration
	// comm seconds into a PULL window at the start of the cycle and a
	// PUSH window at the end; the interleaving solver places both on the
	// shared link. Zero means an even split.
	PullFrac float64
}

// TcpuAt predicts the COMP subtask seconds at DoP m (Eq. 2, plus the
// fitted serial floor when multi-DoP profiles revealed one).
func (j JobInfo) TcpuAt(m int) float64 {
	if m < 1 {
		m = 1
	}
	return j.Comp/float64(m) + j.CompFloor
}

// IterAt predicts the job's own iteration seconds at DoP m
// (T_jitr in Eq. 1).
func (j JobInfo) IterAt(m int) float64 { return j.TcpuAt(m) + j.Net }

// CompRatioAt is the computation share of the job's iteration at DoP m.
func (j JobInfo) CompRatioAt(m int) float64 {
	it := j.IterAt(m)
	if it == 0 {
		return 0
	}
	return j.TcpuAt(m) / it
}

// MinMemoryGB is the job's smallest possible per-machine heap footprint at
// DoP m: all input blocks spilled to disk (α=1, §IV-C), leaving only the
// model partition and working memory resident.
func (j JobInfo) MinMemoryGB(m int) float64 {
	if m < 1 {
		m = 1
	}
	heap := j.JVMHeapFactor
	if heap <= 0 {
		heap = 1
	}
	return heap*j.ModelGB/float64(m) + j.WorkGB
}

// Group is a set of co-located jobs and the machines allocated to them;
// the group DoP m_g equals Machines since every machine hosts one worker
// and one server.
type Group struct {
	Jobs     []JobInfo
	Machines int
}

// SumComp is ΣT_cpu_j over the group's jobs at the group DoP.
func (g Group) SumComp() float64 {
	var s float64
	for i := range g.Jobs {
		s += g.Jobs[i].TcpuAt(g.Machines)
	}
	return s
}

// SumNet is ΣT_net_j over the group's jobs.
func (g Group) SumNet() float64 {
	var s float64
	for i := range g.Jobs {
		s += g.Jobs[i].Net
	}
	return s
}

// MaxJobIter is max_j T_jitr_j, the job-bound term of Eq. 1.
func (g Group) MaxJobIter() float64 {
	var m float64
	for i := range g.Jobs {
		m = math.Max(m, g.Jobs[i].IterAt(g.Machines))
	}
	return m
}

// IterSeconds predicts the group iteration time T_g_itr by Eq. 1:
// the maximum of the CPU-bound, network-bound and job-bound terms.
func (g Group) IterSeconds() float64 {
	return math.Max(g.SumComp(), math.Max(g.SumNet(), g.MaxJobIter()))
}

// Util is Eq. 3: the group's CPU and network utilization as shares of the
// group iteration time. Both components are in [0, 1] because Eq. 1 lower-
// bounds the denominator by each numerator.
func (g Group) Util() (ucpu, unet float64) {
	it := g.IterSeconds()
	if it == 0 {
		return 0, 0
	}
	return g.SumComp() / it, g.SumNet() / it
}

// MinMemoryGB is the smallest per-machine footprint of the whole group
// with every job's input fully spilled.
func (g Group) MinMemoryGB() float64 {
	var s float64
	for i := range g.Jobs {
		s += g.Jobs[i].MinMemoryGB(g.Machines)
	}
	return s
}

// Imbalance is the signed resource imbalance ΣT_cpu − ΣT_net used by the
// swap-based fine-tuning step; positive means CPU-bound.
func (g Group) Imbalance() float64 { return g.SumComp() - g.SumNet() }

func (g Group) String() string {
	ids := make([]string, len(g.Jobs))
	for i, j := range g.Jobs {
		ids[i] = j.ID
	}
	return fmt.Sprintf("{m=%d jobs=[%s]}", g.Machines, strings.Join(ids, " "))
}

// Plan is a complete scheduling decision: a set of job groups with
// machine allocations.
type Plan struct {
	Groups []Group
}

// Util is Eq. 4: cluster utilization as the machine-weighted average of
// group utilizations.
func (p Plan) Util() (ucpu, unet float64) {
	var wc, wn, m float64
	for _, g := range p.Groups {
		uc, un := g.Util()
		wc += float64(g.Machines) * uc
		wn += float64(g.Machines) * un
		m += float64(g.Machines)
	}
	if m == 0 {
		return 0, 0
	}
	return wc / m, wn / m
}

// TotalMachines sums the machines allocated across groups.
func (p Plan) TotalMachines() int {
	var m int
	for _, g := range p.Groups {
		m += g.Machines
	}
	return m
}

// NumJobs counts the jobs placed by the plan.
func (p Plan) NumJobs() int {
	var n int
	for _, g := range p.Groups {
		n += len(g.Jobs)
	}
	return n
}

// JobIDs returns the ids of all placed jobs.
func (p Plan) JobIDs() []string {
	ids := make([]string, 0, p.NumJobs())
	for _, g := range p.Groups {
		for _, j := range g.Jobs {
			ids = append(ids, j.ID)
		}
	}
	return ids
}

// FindJob locates a job in the plan, returning its group index.
func (p Plan) FindJob(id string) (group int, ok bool) {
	for gi, g := range p.Groups {
		for _, j := range g.Jobs {
			if j.ID == id {
				return gi, true
			}
		}
	}
	return 0, false
}

// Clone deep-copies the plan so callers can mutate candidates freely.
func (p Plan) Clone() Plan {
	groups := make([]Group, len(p.Groups))
	for i, g := range p.Groups {
		jobs := make([]JobInfo, len(g.Jobs))
		copy(jobs, g.Jobs)
		groups[i] = Group{Jobs: jobs, Machines: g.Machines}
	}
	return Plan{Groups: groups}
}

func (p Plan) String() string {
	parts := make([]string, len(p.Groups))
	for i, g := range p.Groups {
		parts[i] = g.String()
	}
	return strings.Join(parts, " ")
}
