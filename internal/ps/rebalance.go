package ps

import (
	"fmt"
	"sort"
	"time"

	"harmony/internal/rpc"
)

// This file is the hot-stripe balancer of DESIGN.md §12: it turns the
// per-stripe counters of MethodStats into an EWMA load score per stripe,
// plans migrations that move hot stripes off the most loaded server, and
// executes them with the fence-and-handoff protocol. The planner is pure
// (Observe/Plan over ClusterStats), so it unit-tests without a cluster;
// its caller (RebalanceExperiment) owns the scrape-plan-execute cadence.

// lockWaitWeight converts seconds of measured lock/gate wait into
// op-equivalents when scoring a stripe. One second of queueing counts
// like 10k ops: congestion dominates raw traffic, which is the point —
// the balancer chases contention, not popularity.
const lockWaitWeight = 10_000

// Planner constants. planTolerance is the accepted relative spread around
// the mean server load before any move is planned. planMinScore ignores
// stripes (and servers) colder than this absolute score — noise
// suppression at idle. planCooldownRounds keeps a just-moved stripe off
// the candidate list for this many Observe rounds: its EWMA needs a few
// intervals on the new server before its score means anything there, and
// moving it again sooner is churn by construction. planMaxMoves caps
// migrations per round: each move briefly fences a stripe, so rounds stay
// small and frequent. planMinStreak requires the same server to trip the
// tolerance check this many consecutive rounds before any move is
// planned: queueing noise makes a different server look hottest each
// interval, a real hotspot stays the hottest. planAlpha is the EWMA
// weight of the newest interval in a stripe's score.
const (
	planTolerance      = 0.25
	planMinScore       = 1.0
	planCooldownRounds = 3
	planMaxMoves       = 2
	planMinStreak      = 2
	planAlpha          = 0.5
)

// stripeKey identifies a stripe independent of its current placement.
type stripeKey struct {
	Job    string
	Stripe int
}

// cum is the last observed cumulative counter values for one stripe.
type cum struct {
	ops      int64
	lockWait float64
}

// Move is one planned stripe migration.
type Move struct {
	Job    string
	Stripe int
	From   string
	To     string
}

func (m Move) String() string {
	return fmt.Sprintf("migrate %s/%d %s -> %s", m.Job, m.Stripe, m.From, m.To)
}

// stripeState is the balancer's rolling view of one stripe.
type stripeState struct {
	score  float64 // EWMA of per-interval cost
	server string  // current owner
}

// Balancer scores stripes from successive stats scrapes and plans
// migrations. Not safe for concurrent use; the caller serializes
// Observe/Plan.
type Balancer struct {
	prev    map[stripeKey]cum
	state   map[stripeKey]*stripeState
	seenAt  map[stripeKey]int
	movedAt map[stripeKey]int
	round   int
	// Persistence gate for Plan: the server currently tripping the
	// tolerance check and for how many consecutive rounds it has.
	hiServer  string
	hiStreak  int
	planRound int
}

// NewBalancer returns a balancer that has observed nothing.
func NewBalancer() *Balancer {
	return &Balancer{
		prev:    make(map[stripeKey]cum),
		state:   make(map[stripeKey]*stripeState),
		seenAt:  make(map[stripeKey]int),
		movedAt: make(map[stripeKey]int),
	}
}

// Observe folds one cluster-wide stats scrape into the per-stripe EWMA
// scores. Counters are cumulative per stripe block, and a block's
// counters restart from zero when the stripe migrates; interval deltas
// clamp at zero so a migration reads as a quiet interval, not a
// negative one.
func (b *Balancer) Observe(cs ClusterStats) {
	b.round++
	for _, srv := range cs.Servers {
		for _, js := range srv.Jobs {
			for _, st := range js.Stripes {
				key := stripeKey{Job: js.Job, Stripe: st.Index}
				now := cum{ops: st.Ops(), lockWait: st.LockWaitSeconds}
				last := b.prev[key]
				s := b.state[key]
				// A migrated stripe restarts its counters on the new server,
				// invalidating the baseline. Folding the bogus "quiet"
				// interval into the EWMA would make the stripe look cold
				// right after its move and invite churn — keep the score and
				// just rebase.
				rebase := (s != nil && s.server != srv.Addr) || now.ops < last.ops
				dOps := max(now.ops-last.ops, 0)
				dWait := max(now.lockWait-last.lockWait, 0)
				cost := float64(dOps) + lockWaitWeight*dWait
				if s == nil {
					s = &stripeState{score: cost}
					b.state[key] = s
				} else if !rebase {
					s.score = planAlpha*cost + (1-planAlpha)*s.score
				}
				s.server = srv.Addr
				b.prev[key] = now
				b.seenAt[key] = b.round
			}
		}
	}
	// Forget stripes that vanished (job dropped): two rounds of absence.
	for key, at := range b.seenAt {
		if b.round-at > 2 {
			delete(b.seenAt, key)
			delete(b.state, key)
			delete(b.prev, key)
			delete(b.movedAt, key)
		}
	}
}

// serverLoad sums stripe scores per server over every server present in
// the last scrape plus any server hosting a scored stripe.
func (b *Balancer) serverLoads(servers []string) map[string]float64 {
	loads := make(map[string]float64, len(servers))
	for _, s := range servers {
		loads[s] = 0
	}
	for _, st := range b.state {
		loads[st.server] += st.score
	}
	return loads
}

// Plan proposes up to planMaxMoves stripe migrations among servers that
// shrink the load gap between the hottest and coldest of them. A server
// not present in past scrapes counts as idle and is a natural target.
func (b *Balancer) Plan(servers []string) []Move {
	if len(servers) < 2 {
		return nil
	}
	servers = append([]string(nil), servers...)
	sort.Strings(servers)
	var moves []Move
	// Work on a mutable copy of the loads so successive moves in one
	// round see each other's effect.
	loads := b.serverLoads(servers)
	moved := make(map[stripeKey]bool)
	cooling := func(key stripeKey) bool {
		at, ok := b.movedAt[key]
		return ok && b.round-at < planCooldownRounds
	}
	// Persistence gate: track which server (if any) trips the tolerance
	// check this round and demand planMinStreak consecutive rounds of the
	// same answer before planning anything.
	hi, trip := hottest(servers, loads)
	if b.planRound != b.round {
		b.planRound = b.round
		switch {
		case trip && hi == b.hiServer:
			b.hiStreak++
		case trip:
			b.hiServer, b.hiStreak = hi, 1
		default:
			b.hiServer, b.hiStreak = "", 0
		}
	}
	if !trip || b.hiStreak < planMinStreak {
		return nil
	}
	for ; trip && len(moves) < planMaxMoves; hi, trip = hottest(servers, loads) {
		// Pick the hottest stripe on hi whose score fits strictly inside
		// the gap to the coldest other server: moving it must shrink the
		// spread, not just swap which server is overloaded (score >= gap
		// would oscillate).
		dest := coldest(servers, hi, loads)
		var bestKey stripeKey
		var best *stripeState
		for key, st := range b.state {
			if st.server != hi || moved[key] || cooling(key) || st.score < planMinScore {
				continue
			}
			if st.score >= loads[hi]-loads[dest] {
				continue
			}
			if best == nil || st.score > best.score {
				bestKey, best = key, st
			}
		}
		if best == nil {
			break
		}
		moves = append(moves, Move{Job: bestKey.Job, Stripe: bestKey.Stripe, From: hi, To: dest})
		moved[bestKey] = true
		loads[hi] -= best.score
		loads[dest] += best.score
	}
	sort.Slice(moves, func(i, j int) bool {
		if moves[i].Job != moves[j].Job {
			return moves[i].Job < moves[j].Job
		}
		return moves[i].Stripe < moves[j].Stripe
	})
	return moves
}

// hottest picks the most loaded of servers and reports whether it trips
// the imbalance check: not idle, and above the mean by more than the
// tolerance.
func hottest(servers []string, loads map[string]float64) (hi string, trips bool) {
	var total float64
	for _, s := range servers {
		if hi == "" || loads[s] > loads[hi] {
			hi = s
		}
		total += loads[s]
	}
	mean := total / float64(len(servers))
	return hi, loads[hi] >= planMinScore && loads[hi] > mean*(1+planTolerance)
}

// coldest picks the least-loaded of servers (at least two) other than hi.
func coldest(servers []string, hi string, loads map[string]float64) string {
	lo := ""
	for _, s := range servers {
		if s != hi && (lo == "" || loads[s] < loads[lo]) {
			lo = s
		}
	}
	return lo
}

// CommitMoves folds executed moves back into the balancer's model:
// cooldown stamps and stripe placement change only once a handoff
// actually succeeded, so a move that failed to execute stays eligible
// on the next round instead of sitting out the cooldown on a phantom
// placement.
func (b *Balancer) CommitMoves(moves []Move) {
	for _, m := range moves {
		key := stripeKey{Job: m.Job, Stripe: m.Stripe}
		b.movedAt[key] = b.round
		if st := b.state[key]; st != nil {
			st.server = m.To
		}
	}
}

// ConnFunc supplies a connection to a PS server by address. The caller
// owns connection lifetime (the experiment keeps a dial cache).
type ConnFunc func(addr string) (*rpc.Client, error)

// ExecuteMoves applies planned moves via the fence-and-handoff RPC,
// returning the subset that succeeded (feed it to Balancer.CommitMoves).
// Execution is best-effort and sequential: a failed move leaves its
// stripe on the source, fully intact, and later moves still run.
func ExecuteMoves(conn ConnFunc, moves []Move, timeout time.Duration) ([]Move, error) {
	if timeout <= 0 {
		timeout = time.Minute
	}
	var firstErr error
	var executed []Move
	for _, m := range moves {
		cl, err := conn(m.From)
		if err == nil {
			_, err = rpc.Invoke[MigrateArgs, Ack](cl, MethodMigrate,
				MigrateArgs{Job: m.Job, Stripe: m.Stripe, Dest: m.To}, timeout)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("ps: %s: %w", m, err)
			}
			continue
		}
		executed = append(executed, m)
	}
	return executed, firstErr
}
