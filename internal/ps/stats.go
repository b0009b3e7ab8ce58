package ps

import (
	"fmt"
	"sort"

	"harmony/internal/metrics"
)

// StripeStat is one stripe's load counters as reported by Server.Stats.
// Counters are cumulative since Init created the stripe block.
type StripeStat struct {
	Index int
	Lo    int
	Len   int

	PullOps         int64
	PushOps         int64
	PullBytes       int64
	PushBytes       int64
	LockWaitSeconds float64
}

// Ops is the stripe's total op count (pulls + pushes).
func (s StripeStat) Ops() int64 { return s.PullOps + s.PushOps }

// JobStats groups one job's stripes on one server.
type JobStats struct {
	Job     string
	Stripes []StripeStat
}

// StatsReply is one server's counters (Server.Stats), carried to the
// master inside its hosting worker's stats reply.
type StatsReply struct {
	Jobs []JobStats
	// LockWait is the server-wide distribution of per-op stripe lock
	// wait.
	LockWait metrics.HistSnapshot
}

// ServerStats tags one server's StatsReply with its identity.
type ServerStats struct {
	Name string
	Addr string
	StatsReply
}

// ClusterStats is the master's merged view across every PS server
// (Master.PSStats); it feeds /metrics, GET /v1/ps and
// `harmonyctl ps-stats`.
type ClusterStats struct {
	Servers []ServerStats
}

// stripeSample is a flattened (server, job, stripe) stat used for top-K
// selection.
type stripeSample struct {
	server string
	job    string
	stat   StripeStat
}

// StripeSamples renders cluster-wide per-stripe load as Prometheus
// samples with bounded cardinality: the top-K stripes by op count get
// their own labeled series, everything else folds into a stripe="other"
// aggregate per server. Families:
//
//	harmony_ps_stripe_ops_total{op,server,job,stripe}
//	harmony_ps_stripe_lock_wait_seconds_total{server,job,stripe}
func StripeSamples(cs ClusterStats, topK int) []metrics.Sample {
	if topK < 0 {
		topK = 0
	}
	var all []stripeSample
	for _, srv := range cs.Servers {
		for _, js := range srv.Jobs {
			for _, st := range js.Stripes {
				all = append(all, stripeSample{server: srv.Name, job: js.Job, stat: st})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].stat.Ops() > all[j].stat.Ops() })
	hot := all
	if len(hot) > topK {
		hot = all[:topK]
	}
	rest := all[len(hot):]

	const (
		opsFam  = "harmony_ps_stripe_ops_total"
		opsHelp = "Parameter-server ops per stripe (top-K hot stripes; the rest aggregate as stripe=\"other\")."
		lwFam   = "harmony_ps_stripe_lock_wait_seconds_total"
		lwHelp  = "Time ops spent waiting on the stripe lock."
	)
	var out []metrics.Sample
	opSample := func(op, server, job, stripe string, v float64) metrics.Sample {
		return metrics.Sample{
			Name: fmt.Sprintf(`%s{op=%q,server=%q,job=%q,stripe=%s}`, opsFam, op, server, job, stripe),
			Help: opsHelp, Type: metrics.PromCounter, Fam: opsFam, Value: v,
		}
	}
	lwSample := func(server, job, stripe string, v float64) metrics.Sample {
		return metrics.Sample{
			Name: fmt.Sprintf(`%s{server=%q,job=%q,stripe=%s}`, lwFam, server, job, stripe),
			Help: lwHelp, Type: metrics.PromCounter, Fam: lwFam, Value: v,
		}
	}
	for _, s := range hot {
		stripe := fmt.Sprintf(`"%d"`, s.stat.Index)
		out = append(out,
			opSample("pull", s.server, s.job, stripe, float64(s.stat.PullOps)),
			opSample("push", s.server, s.job, stripe, float64(s.stat.PushOps)),
			lwSample(s.server, s.job, stripe, s.stat.LockWaitSeconds),
		)
	}
	// Fold the cold tail into one aggregate per server so the series
	// count stays bounded no matter how many stripes exist.
	type agg struct {
		pull, push int64
		lockWait   float64
	}
	other := make(map[string]*agg)
	var servers []string
	for _, s := range rest {
		a := other[s.server]
		if a == nil {
			a = &agg{}
			other[s.server] = a
			servers = append(servers, s.server)
		}
		a.pull += s.stat.PullOps
		a.push += s.stat.PushOps
		a.lockWait += s.stat.LockWaitSeconds
	}
	sort.Strings(servers)
	for _, server := range servers {
		a := other[server]
		out = append(out,
			opSample("pull", server, "", `"other"`, float64(a.pull)),
			opSample("push", server, "", `"other"`, float64(a.push)),
			lwSample(server, "", `"other"`, a.lockWait),
		)
	}
	return out
}
