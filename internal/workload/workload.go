// Package workload defines the ML training job specifications used by the
// evaluation: the applications, datasets and hyper-parameter variants of
// Table I, and generators for the 80-job base workload whose iteration-time
// and computation-ratio distributions follow Fig. 9 of the paper.
//
// The paper trains on real datasets (Netflix, PubMed, NYTimes and
// Bösen-generated synthetic data). This reproduction replaces them with
// per-(app, dataset) cost profiles calibrated so that single-job runs
// reproduce the published resource-usage shapes: per-iteration aggregate
// CPU work in machine-seconds (which divides by the degree of parallelism,
// Eq. 2 of the paper) and per-machine communication seconds (which stay
// roughly constant as machines are added).
package workload

import (
	"fmt"
	"math"
)

// App enumerates the four classical ML applications of Table I.
type App int

// Applications used in the paper's evaluation.
const (
	NMF App = iota + 1
	LDA
	MLR
	Lasso
)

// String returns the application acronym as used in the paper.
func (a App) String() string {
	switch a {
	case NMF:
		return "NMF"
	case LDA:
		return "LDA"
	case MLR:
		return "MLR"
	case Lasso:
		return "Lasso"
	default:
		return fmt.Sprintf("App(%d)", int(a))
	}
}

// Dataset describes the input and model footprint of one dataset
// (Table I of the paper).
type Dataset struct {
	Name    string
	InputGB float64
	ModelGB float64
}

// Datasets from Table I. MLR and Lasso share the Bösen-style synthetic
// datasets; their model sizes (12 and 24 GB) correspond to the two
// synthetic input sizes.
var (
	Netflix64x  = Dataset{Name: "Netflix64x", InputGB: 45.6, ModelGB: 1.0}
	Netflix128x = Dataset{Name: "Netflix128x", InputGB: 91.2, ModelGB: 5.0}
	PubMed      = Dataset{Name: "PubMed", InputGB: 4.3, ModelGB: 2.1}
	NYTimes     = Dataset{Name: "NYTimes", InputGB: 0.6, ModelGB: 1.1}
	Synth78     = Dataset{Name: "Synth78", InputGB: 78.4, ModelGB: 12.0}
	Synth155    = Dataset{Name: "Synth155", InputGB: 155.0, ModelGB: 24.0}
)

// ReferenceDoP is the degree of parallelism at which profile numbers are
// quoted; Fig. 9 of the paper uses DoP 16 for all workload characteristics.
const ReferenceDoP = 16

// netDoPScale models the mild growth of per-machine communication time
// with the number of machines (more peers, more connection overhead);
// Fig. 3b of the paper shows PULL/PUSH times roughly flat but not exactly
// constant. Normalized to 1.0 at the reference DoP.
func netDoPScale(m int) float64 {
	if m < 1 {
		m = 1
	}
	return 1 + 0.04*math.Log2(float64(m)/float64(ReferenceDoP))
}

// Spec fully describes one training job: its application, dataset,
// hyper-parameter variant, and the calibrated cost model used by both the
// performance model and the simulator.
type Spec struct {
	// ID uniquely names the job within a workload.
	ID string
	// App is the ML application.
	App App
	// Data is the dataset trained on.
	Data Dataset
	// Hyper describes the hyper-parameter variant (e.g. "classes=16K").
	Hyper string

	// CompMachineSeconds is the aggregate CPU work of one iteration in
	// machine-seconds; the COMP subtask time at DoP m is
	// CompMachineSeconds / m (Eq. 2 of the paper).
	CompMachineSeconds float64
	// NetSeconds is the per-machine communication time (PULL + PUSH) of
	// one iteration at the reference DoP.
	NetSeconds float64
	// PullFrac is the fraction of NetSeconds spent in PULL; the rest is
	// PUSH.
	PullFrac float64
	// Iterations is the number of iterations until the objective crosses
	// its convergence threshold.
	Iterations int
	// WorkGB is the per-machine working memory for intermediate results
	// (pulled parameters, computed gradients, serialization buffers).
	WorkGB float64
}

// Validate reports an error for non-executable specs.
func (s Spec) Validate() error {
	switch {
	case s.ID == "":
		return fmt.Errorf("workload: spec missing ID")
	case s.CompMachineSeconds <= 0:
		return fmt.Errorf("workload: %s has comp work %.1f, need > 0", s.ID, s.CompMachineSeconds)
	case s.NetSeconds <= 0:
		return fmt.Errorf("workload: %s has net time %.1f, need > 0", s.ID, s.NetSeconds)
	case s.PullFrac < 0 || s.PullFrac > 1:
		return fmt.Errorf("workload: %s has pull fraction %.2f outside [0,1]", s.ID, s.PullFrac)
	case s.Iterations <= 0:
		return fmt.Errorf("workload: %s has %d iterations, need > 0", s.ID, s.Iterations)
	}
	return nil
}

// TcpuAt returns the COMP subtask time in seconds at DoP m (Eq. 2).
func (s Spec) TcpuAt(m int) float64 {
	if m < 1 {
		m = 1
	}
	return s.CompMachineSeconds / float64(m)
}

// TnetAt returns the per-machine COMM time (PULL+PUSH) in seconds at DoP m.
func (s Spec) TnetAt(m int) float64 {
	return s.NetSeconds * netDoPScale(m)
}

// TpullAt returns the PULL subtask time in seconds at DoP m.
func (s Spec) TpullAt(m int) float64 { return s.TnetAt(m) * s.PullFrac }

// TpushAt returns the PUSH subtask time in seconds at DoP m.
func (s Spec) TpushAt(m int) float64 { return s.TnetAt(m) * (1 - s.PullFrac) }

// IterSecondsAt returns the un-co-located iteration time at DoP m.
func (s Spec) IterSecondsAt(m int) float64 { return s.TcpuAt(m) + s.TnetAt(m) }

// CompRatioAt returns the fraction of the iteration spent computing at
// DoP m — the x-axis of Fig. 9b.
func (s Spec) CompRatioAt(m int) float64 {
	return s.TcpuAt(m) / s.IterSecondsAt(m)
}

// JVMHeapFactor inflates raw data sizes to heap footprints. The paper's
// system runs on the JVM, where object headers, boxing and serialization
// buffers roughly double resident size; this factor is what makes the
// three-job co-location of Fig. 4 exceed machine memory.
const JVMHeapFactor = 2.2

// MemoryGB returns the per-machine heap footprint of the job at DoP m
// when a fraction alpha of its input blocks is spilled to disk
// (alpha = 0 keeps all input in memory).
func (s Spec) MemoryGB(m int, alpha float64) float64 {
	if m < 1 {
		m = 1
	}
	if alpha < 0 {
		alpha = 0
	} else if alpha > 1 {
		alpha = 1
	}
	inMem := (1 - alpha) * s.Data.InputGB / float64(m)
	model := s.Data.ModelGB / float64(m)
	return JVMHeapFactor*(inMem+model) + s.WorkGB
}

func (s Spec) String() string {
	return fmt.Sprintf("%s(%s/%s %s)", s.ID, s.App, s.Data.Name, s.Hyper)
}
