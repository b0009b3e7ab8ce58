package master

import (
	"errors"
	"fmt"

	"harmony/internal/ps"
	"harmony/internal/rpc"
)

// PSStats scrapes per-stripe parameter-server statistics from every
// registered worker (each worker co-hosts a PS on its RPC address).
// Scraping is best-effort per worker — one mid-restart worker must not
// blank the cluster view — but an empty result with failures reports
// the first error.
func (m *Master) PSStats() (ps.ClusterStats, error) {
	m.mu.RLock()
	refs := append([]workerRef(nil), m.workers...)
	m.mu.RUnlock()
	if len(refs) == 0 {
		return ps.ClusterStats{}, errors.New("master: no workers")
	}
	var cs ps.ClusterStats
	var firstErr error
	for _, r := range refs {
		reply, err := rpc.Invoke[ps.StatsArgs, ps.StatsReply](r.client,
			ps.MethodStats, ps.StatsArgs{}, collectTimeout)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("master: ps stats from %s (%s): %w", r.name, r.addr, err)
			}
			continue
		}
		cs.Servers = append(cs.Servers, ps.ServerStats{
			Name: r.name, Addr: r.addr, StatsReply: reply,
		})
	}
	if len(cs.Servers) == 0 && firstErr != nil {
		return cs, firstErr
	}
	return cs, nil
}
