package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"harmony/internal/metrics"
)

func at(ms int64) time.Time { return time.Unix(0, ms*int64(time.Millisecond)) }

func TestRecorderSequenceAndDrain(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(PhaseComp, "a", i, at(int64(i)), at(int64(i)+1))
	}
	if r.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d, want 5", r.LastSeq())
	}
	spans := r.SpansAfter(0, nil)
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	for i, s := range spans {
		if s.Seq != uint64(i+1) || s.Iter != i || s.Job != "a" {
			t.Errorf("span %d = %+v", i, s)
		}
	}
	// Resuming from a cursor returns only newer spans.
	tail := r.SpansAfter(3, nil)
	if len(tail) != 2 || tail[0].Seq != 4 {
		t.Errorf("SpansAfter(3) = %+v", tail)
	}
	if got := r.SpansAfter(5, nil); len(got) != 0 {
		t.Errorf("SpansAfter(lastSeq) = %+v, want empty", got)
	}
}

// TestRecorderOverflowDropsOldest pins the ring contract: over capacity,
// the oldest spans are evicted, sequence numbers stay monotone with no
// reuse, and a stale cursor resumes at the oldest retained span.
func TestRecorderOverflowDropsOldest(t *testing.T) {
	const capacity = 4
	r := NewRecorder(capacity)
	for i := 0; i < 10; i++ {
		r.Record(PhasePull, "a", i, at(int64(i)), at(int64(i)+1))
	}
	if r.LastSeq() != 10 {
		t.Fatalf("LastSeq = %d, want 10", r.LastSeq())
	}
	spans := r.SpansAfter(0, nil)
	if len(spans) != capacity {
		t.Fatalf("retained %d spans, want %d", len(spans), capacity)
	}
	for i, s := range spans {
		want := uint64(10 - capacity + 1 + i) // 7, 8, 9, 10
		if s.Seq != want {
			t.Errorf("span %d Seq = %d, want %d", i, s.Seq, want)
		}
		if i > 0 && s.Seq <= spans[i-1].Seq {
			t.Errorf("sequence not monotone at %d: %d after %d", i, s.Seq, spans[i-1].Seq)
		}
	}
	// A cursor pointing into the evicted range sees the retained suffix.
	if got := r.SpansAfter(2, nil); len(got) != capacity || got[0].Seq != 7 {
		t.Errorf("stale cursor drain = %+v", got)
	}
}

// count is the total number of observations in a histogram snapshot.
func count(s metrics.HistSnapshot) int64 {
	n := s.Inf
	for _, c := range s.Counts {
		n += c
	}
	return n
}

func TestRecorderHistograms(t *testing.T) {
	r := NewRecorder(8)
	r.Record(PhaseComp, "a", 0, at(0), at(10))   // 10ms
	r.Record(PhaseComp, "a", 1, at(0), at(20))   // 20ms
	r.Record(PhaseBarrier, "a", 0, at(0), at(1)) // 1ms
	hs := r.HistSnapshots()
	if count(hs[PhaseComp]) != 2 {
		t.Errorf("comp count = %d, want 2", count(hs[PhaseComp]))
	}
	if math.Abs(hs[PhaseComp].Sum-0.030) > 1e-9 {
		t.Errorf("comp sum = %v, want 0.030", hs[PhaseComp].Sum)
	}
	if count(hs[PhaseBarrier]) != 1 || count(hs[PhasePull]) != 0 {
		t.Errorf("histograms = %+v", hs)
	}
}

// TestNilRecorderZeroAllocs pins the flag-off cost: with tracing
// disabled the recorder is nil and every instrumentation point must be
// a nil check — zero allocations — so the zero-alloc PULL/PUSH and COMP
// hot paths stay zero-alloc.
func TestNilRecorderZeroAllocs(t *testing.T) {
	var r *Recorder
	start := time.Now()
	end := start.Add(time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(PhaseComp, "job", 3, start, end)
		r.Record(PhasePull, "job", 3, start, end)
		_ = r.SpansAfter(0, nil)
		_ = r.LastSeq()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocates %.1f per run, want 0", allocs)
	}
}

// TestRecordSteadyStateZeroAllocs: even enabled, recording into the
// preallocated ring must not allocate.
func TestRecordSteadyStateZeroAllocs(t *testing.T) {
	r := NewRecorder(16)
	start := time.Now()
	end := start.Add(time.Millisecond)
	allocs := testing.AllocsPerRun(100, func() {
		r.Record(PhaseComp, "job", 3, start, end)
	})
	if allocs != 0 {
		t.Fatalf("enabled recorder allocates %.1f per span, want 0", allocs)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	spans := []TaggedSpan{
		{Span: Span{Seq: 1, Phase: PhaseComp, Job: "a", Iter: 0,
			Start: 1_000_000, End: 5_000_000}, Machine: "w0", Group: "w0,w1"},
		{Span: Span{Seq: 2, Phase: PhasePull, Job: "b", Iter: 0,
			Start: 2_000_000, End: 4_000_000}, Machine: "w0", Group: "w0,w1"},
		{Span: Span{Seq: 1, Phase: PhasePush, Job: "a", Iter: 0,
			Start: 3_000_000, End: 6_000_000}, Machine: "w1", Group: "w0,w1"},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, meta int
	pidOf := map[string]int{}
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Dur <= 0 {
				t.Errorf("complete event %q has dur %v", e.Name, e.Dur)
			}
		case "M":
			meta++
			if e.Name == "process_name" {
				pidOf[e.Args["name"].(string)] = e.PID
			}
		}
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if pidOf["w0"] == 0 || pidOf["w1"] == 0 || pidOf["w0"] == pidOf["w1"] {
		t.Errorf("machine pids = %v, want distinct nonzero", pidOf)
	}
	// COMP and PULL on the same machine must land on different tracks.
	var compTID, pullTID = -1, -1
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.PID != pidOf["w0"] {
			continue
		}
		switch e.Args["job"] {
		case "a":
			compTID = e.TID
		case "b":
			pullTID = e.TID
		}
	}
	if compTID < 0 || pullTID < 0 || compTID == pullTID {
		t.Errorf("cpu/net tracks not separated: comp tid %d, pull tid %d", compTID, pullTID)
	}
	// An empty trace is still valid JSON with an events array.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil || tr.TraceEvents == nil {
		t.Errorf("empty trace invalid: %v / %s", err, buf.String())
	}
}

func TestOverlapByGroup(t *testing.T) {
	g := "w0,w1"
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []TaggedSpan{
		// w0: comp [0,100), comm [50,150) → overlap 50ms, busy 150ms.
		{Span: Span{Phase: PhaseComp, Start: ms(0), End: ms(100)}, Machine: "w0", Group: g},
		{Span: Span{Phase: PhasePull, Start: ms(50), End: ms(150)}, Machine: "w0", Group: g},
		// w1: disjoint comp and comm → overlap 0, busy 100ms.
		{Span: Span{Phase: PhaseComp, Start: ms(0), End: ms(50)}, Machine: "w1", Group: g},
		{Span: Span{Phase: PhasePush, Start: ms(50), End: ms(100)}, Machine: "w1", Group: g},
		// Barrier spans are neither comp nor comm and must be ignored.
		{Span: Span{Phase: PhaseBarrier, Start: ms(0), End: ms(500)}, Machine: "w0", Group: g},
	}
	got := OverlapByGroup(spans)
	want := 50.0 / 250.0
	if math.Abs(got[g]-want) > 1e-12 {
		t.Errorf("overlap[%s] = %v, want %v", g, got[g], want)
	}
	if len(got) != 1 {
		t.Errorf("groups = %v", got)
	}
}

// TestOverlapByGroupInsufficientSamples pins the no-data semantics: a
// group whose spans cover only one phase class is absent, so a consumer
// can tell "no overlap measured" apart from "nothing to measure".
func TestOverlapByGroupInsufficientSamples(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []TaggedSpan{
		// compOnly: COMP spans but no COMM at all.
		{Span: Span{Phase: PhaseComp, Start: ms(0), End: ms(100)}, Machine: "w0", Group: "compOnly"},
		// commOnly: COMM spans but no COMP.
		{Span: Span{Phase: PhasePull, Start: ms(0), End: ms(80)}, Machine: "w1", Group: "commOnly"},
		// both: a real measured zero (disjoint phases on one machine).
		{Span: Span{Phase: PhaseComp, Start: ms(0), End: ms(50)}, Machine: "w2", Group: "both"},
		{Span: Span{Phase: PhasePush, Start: ms(50), End: ms(100)}, Machine: "w2", Group: "both"},
	}
	got := OverlapByGroup(spans)
	for _, g := range []string{"compOnly", "commOnly"} {
		if v, ok := got[g]; ok {
			t.Errorf("overlap[%s] = %v, want no entry for a group with one phase class", g, v)
		}
	}
	if v, ok := got["both"]; !ok || v != 0 {
		t.Errorf("overlap[both] = %v, %v; want a measured 0: both classes present, disjoint", v, ok)
	}
}
