// Package fair is the multi-tenant admission policy (DESIGN.md §13):
// named hierarchical queues with weights, quotas and over-quota weights,
// per-job priorities, and the admission kernel (kernel.go) that turns a
// View of the cluster into the next Decision — admit this held job,
// preempt these victims for that one, or wait. It is pure — no locks, no
// goroutines, no clocks, no I/O — so every decision is a deterministic
// function of its inputs. The kernel has three drivers, which differ only
// in the View they build, the Place they supply and how they execute a
// Decision: the live master under its own mutex (internal/master), the
// tick simulator (experiment.go), and replay's what-if verdicts
// (internal/replay). Order, BorrowGated and Victims are the kernel's
// parts; nothing outside this package decides with them.
//
// The model follows KAI-Scheduler's queue semantics (SNIPPETS.md
// snippet 1): a queue's quota is a guaranteed fraction of the cluster,
// capacity beyond it is borrowed and preemptible, and gang jobs place
// their full worker set atomically (minMember) or not at all.
package fair

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// DefaultQueue is where jobs without an explicit queue land. It always
// exists; with no other queues configured it owns the whole cluster,
// which is single-tenant FIFO admission.
const DefaultQueue = "default"

// Hold reasons surfaced in JobView.HoldReason and journal notes; they
// distinguish a job waiting on the Eq. 1 slowdown bound from one
// waiting on gang capacity or on its tenant's quota.
const (
	// HoldSlowdown: the §IV-B4 arrival rule found no placement that
	// improves the Eq. 1/Eq. 3 scheduling score (the slowdown bound).
	HoldSlowdown = "slowdown_bound"
	// HoldNoGang: no feasible worker set of the job's gang size exists
	// (free workers < MinWorkers and no running group fits the band).
	HoldNoGang = "no_gang_capacity"
	// HoldQuota: the job's queue is at or over its quota while an
	// under-quota queue has held jobs; borrowing is gated.
	HoldQuota = "quota_exhausted"
	// HoldPreempted: the job was reclaimed from a running placement, or
	// requeued after a failure, and holds a checkpoint; it resumes from it
	// on re-admission.
	HoldPreempted = "preempted"
)

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// QueueConfig declares one admission queue.
type QueueConfig struct {
	// Name identifies the queue; job specs reference it.
	Name string `json:"name"`
	// Parent nests this queue under another for hierarchical shares;
	// empty means a root queue.
	Parent string `json:"parent,omitempty"`
	// Weight is the queue's relative share among its siblings when no
	// quota pins it; <= 0 defaults to 1.
	Weight float64 `json:"weight,omitempty"`
	// Quota pins the queue's guaranteed share as a fraction of its
	// parent's share (of the whole cluster for roots), in (0, 1]. Zero
	// derives the share from Weight over the unpinned remainder.
	Quota float64 `json:"quota,omitempty"`
	// OverQuotaWeight orders queues competing for capacity beyond their
	// quota (higher borrows first); <= 0 defaults to Weight.
	OverQuotaWeight float64 `json:"over_quota_weight,omitempty"`
}

// Held is one job waiting in the admission queue, as the policy sees it.
type Held struct {
	Job      string
	Queue    string
	Priority int
	// Seq is the arrival sequence number; FIFO within equal priority.
	Seq uint64
	// Demand is the gang size the job needs to place (>= 1).
	Demand int
	// Resumable marks a preempted job holding a checkpoint.
	Resumable bool
}

// Running is one deployed job, as victim selection sees it.
type Running struct {
	Job      string
	Queue    string
	Priority int
	// StartSeq orders deployments; higher = more recently started.
	StartSeq uint64
	// Workers is the size of the job's current placement.
	Workers int
}

// Usage maps queue name to the number of workers its running jobs
// occupy. Co-located jobs each count their full group, so usage can
// exceed the cluster size; shares gate scheduling pressure, not slots.
type Usage map[string]int

// Scheduler resolves queue shares and orders admission. It is immutable
// after New; reconfiguring builds a new one.
type Scheduler struct {
	cfgs   map[string]QueueConfig
	shares map[string]float64
	names  []string
}

// New validates the queue forest and resolves every queue's share of
// the cluster. The default queue is added when absent. Quotas of
// sibling queues must not sum above 1; weight-only siblings split what
// the quotas leave.
func New(cfgs ...QueueConfig) (*Scheduler, error) {
	s := &Scheduler{
		cfgs:   make(map[string]QueueConfig, len(cfgs)+1),
		shares: make(map[string]float64, len(cfgs)+1),
	}
	for _, c := range cfgs {
		if !nameRe.MatchString(c.Name) {
			return nil, fmt.Errorf("fair: queue name %q must match %s", c.Name, nameRe)
		}
		if _, dup := s.cfgs[c.Name]; dup {
			return nil, fmt.Errorf("fair: duplicate queue %q", c.Name)
		}
		if c.Quota < 0 || c.Quota > 1 {
			return nil, fmt.Errorf("fair: queue %q quota %v outside [0, 1]", c.Name, c.Quota)
		}
		if c.Weight <= 0 {
			c.Weight = 1
		}
		if c.OverQuotaWeight <= 0 {
			c.OverQuotaWeight = c.Weight
		}
		s.cfgs[c.Name] = c
	}
	if _, ok := s.cfgs[DefaultQueue]; !ok {
		s.cfgs[DefaultQueue] = QueueConfig{Name: DefaultQueue, Weight: 1, OverQuotaWeight: 1}
	}
	for name, c := range s.cfgs {
		if c.Parent == "" {
			continue
		}
		if _, ok := s.cfgs[c.Parent]; !ok {
			return nil, fmt.Errorf("fair: queue %q has unknown parent %q", name, c.Parent)
		}
		// Cycle check: walk to a root within the queue count.
		seen := 0
		for p := c.Parent; p != ""; p = s.cfgs[p].Parent {
			if p == name {
				return nil, fmt.Errorf("fair: queue %q is its own ancestor", name)
			}
			if seen++; seen > len(s.cfgs) {
				return nil, fmt.Errorf("fair: queue parent cycle involving %q", name)
			}
		}
	}
	if err := s.resolveShares(); err != nil {
		return nil, err
	}
	for name := range s.cfgs {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	return s, nil
}

// Default is the single-queue scheduler the master starts with: one
// uncapped default queue, which degenerates to FIFO admission.
func Default() *Scheduler {
	s, err := New()
	if err != nil {
		panic("fair: default scheduler: " + err.Error())
	}
	return s
}

// resolveShares assigns every queue its fraction of the cluster:
// siblings with quotas are pinned to quota×parentShare; the rest split
// the parent's remainder by weight.
func (s *Scheduler) resolveShares() error {
	children := make(map[string][]string)
	var roots []string
	for name, c := range s.cfgs {
		if c.Parent == "" {
			roots = append(roots, name)
		} else {
			children[c.Parent] = append(children[c.Parent], name)
		}
	}
	var divide func(names []string, parentShare float64) error
	divide = func(names []string, parentShare float64) error {
		sort.Strings(names)
		quotaSum, weightSum := 0.0, 0.0
		for _, n := range names {
			c := s.cfgs[n]
			if c.Quota > 0 {
				quotaSum += c.Quota
			} else {
				weightSum += c.Weight
			}
		}
		if quotaSum > 1+1e-9 {
			return fmt.Errorf("fair: sibling quotas of %v sum to %.3f > 1", names, quotaSum)
		}
		rest := 1 - quotaSum
		for _, n := range names {
			c := s.cfgs[n]
			frac := 0.0
			if c.Quota > 0 {
				frac = c.Quota
			} else if weightSum > 0 {
				frac = rest * c.Weight / weightSum
			}
			s.shares[n] = parentShare * frac
			if kids := children[n]; len(kids) > 0 {
				if err := divide(kids, s.shares[n]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return divide(roots, 1)
}

// Names lists all queues, sorted.
func (s *Scheduler) Names() []string { return append([]string(nil), s.names...) }

// Has reports whether the queue exists.
func (s *Scheduler) Has(name string) bool { _, ok := s.cfgs[name]; return ok }

// Config returns a queue's declaration.
func (s *Scheduler) Config(name string) (QueueConfig, bool) {
	c, ok := s.cfgs[name]
	return c, ok
}

// Share is the queue's resolved fraction of the cluster (0 for unknown
// queues).
func (s *Scheduler) Share(name string) float64 { return s.shares[name] }

// QuotaWorkers converts a queue's share into whole workers on a cluster
// of the given size (round half up). A queue the rounding starves gets
// no guarantee; it still borrows like any other.
func (s *Scheduler) QuotaWorkers(name string, total int) int {
	return int(math.Round(s.shares[name] * float64(total)))
}

// BorrowGated reports whether over-quota admission for the queue must
// hold: true when some other queue is under its guarantee and has held
// jobs — its claim on the capacity outranks a borrow. The queues are asked
// first: only if one is under its guarantee is the held list walked.
func (s *Scheduler) BorrowGated(queue string, held []Held, usage Usage, total int) bool {
	if !s.otherUnderQuota(queue, usage, total) {
		return false
	}
	for _, h := range held {
		if h.Queue == queue {
			continue
		}
		if usage[h.Queue] < s.QuotaWorkers(h.Queue, total) {
			return true
		}
	}
	return false
}

// otherUnderQuota reports whether a configured queue other than the given
// one is under its guarantee. A queue missing from the configuration has
// none, so it is never under.
func (s *Scheduler) otherUnderQuota(queue string, usage Usage, total int) bool {
	for _, q := range s.names {
		if q != queue && usage[q] < s.QuotaWorkers(q, total) {
			return true
		}
	}
	return false
}

// queueRank is one queue's standing in fair order (see before).
type queueRank struct {
	name  string
	under bool
	ratio float64 // usage / quota workers; +Inf when no guarantee
	oqw   float64
}

func (s *Scheduler) rankQueue(name string, usage Usage, total int) queueRank {
	r := queueRank{name: name, oqw: s.cfgs[name].OverQuotaWeight, ratio: math.Inf(1)}
	if q := s.QuotaWorkers(name, total); q > 0 {
		r.ratio = float64(usage[name]) / float64(q)
		r.under = usage[name] < q
	}
	return r
}

// before orders queues: under their guarantee first, deepest deficit
// leading; then over-quota queues by descending over-quota weight, then
// ratio. Names break every remaining tie, so no two queues tie.
func (a queueRank) before(b queueRank) bool {
	if a.under != b.under {
		return a.under
	}
	if a.under {
		if a.ratio != b.ratio {
			return a.ratio < b.ratio // deeper deficit first
		}
	} else {
		if a.oqw != b.oqw {
			return a.oqw > b.oqw // stronger borrower first
		}
		if a.ratio != b.ratio {
			return a.ratio < b.ratio
		}
	}
	return a.name < b.name
}

// precedes is fair order on held jobs, the one comparator that Order sorts
// by and Rank counts with: queue place (qa, qb; lower first), then
// priority descending, then arrival sequence, then input order (earlier:
// a comes before b in the input).
func precedes(a, b *Held, qa, qb int, earlier bool) bool {
	if qa != qb {
		return qa < qb
	}
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if a.Seq != b.Seq {
		return a.Seq < b.Seq
	}
	return earlier
}

// Order arranges held jobs in admission-attempt order (precedes): queues
// under their guaranteed share first (largest normalized deficit leading),
// then over-quota queues by descending over-quota weight; within a queue,
// higher priority first, then arrival order, then input order. The order
// is a pure function of the inputs.
func (s *Scheduler) Order(held []Held, usage Usage, total int) []Held {
	if len(held) == 0 {
		return nil
	}
	// Queues are few and jobs many: rank each queue once, place it by
	// counting the queues before it, and give every job its queue's place
	// as an integer, so that comparing two jobs looks nothing up.
	var ranks []queueRank
	seen := make(map[string]int)
	slots := make([]slot, len(held))
	for i, h := range held {
		qi, ok := seen[h.Queue]
		if !ok {
			qi = len(ranks)
			seen[h.Queue] = qi
			ranks = append(ranks, s.rankQueue(h.Queue, usage, total))
		}
		slots[i] = slot{at: int32(i), queue: int32(qi)}
	}
	place := make([]int32, len(ranks))
	for i := range ranks {
		for _, r := range ranks {
			if r.before(ranks[i]) {
				place[i]++
			}
		}
	}
	for i := range slots {
		slots[i].queue = place[slots[i].queue]
	}
	slices.SortFunc(slots, func(x, y slot) int {
		switch {
		case x.at == y.at:
			return 0
		case precedes(&held[x.at], &held[y.at], int(x.queue), int(y.queue), x.at < y.at):
			return -1
		}
		return 1
	})
	out := make([]Held, len(held))
	for i, sl := range slots {
		out[i] = held[sl.at]
	}
	return out
}

// slot is one held job being ordered: its input index and its queue's
// place.
type slot struct{ at, queue int32 }

// Rank counts a held job's place in Order's arrangement without sorting:
// one call of Ahead per other held job, in input order. Each queue is
// ranked once against the target's, so a count over a deep held list of a
// few tenants ranks a few queues.
type Rank struct {
	s      *Scheduler
	usage  Usage
	total  int
	target Held
	rank   queueRank
	// known caches, per queue met so far, whether it goes before the
	// target's.
	known []queueBefore
}

type queueBefore struct {
	name   string
	before bool
}

// Rank prepares a count of the jobs ahead of target.
func (s *Scheduler) Rank(target Held, usage Usage, total int) Rank {
	return Rank{s: s, usage: usage, total: total, target: target,
		rank: s.rankQueue(target.Queue, usage, total)}
}

// Ahead reports whether h precedes the target in fair order; earlier says
// whether h comes before the target in the input.
func (r *Rank) Ahead(h Held, earlier bool) bool {
	qh, qt := 0, 0
	if h.Queue != r.target.Queue {
		if r.queueBefore(h.Queue) {
			qt = 1
		} else {
			qh = 1
		}
	}
	return precedes(&h, &r.target, qh, qt, earlier)
}

func (r *Rank) queueBefore(name string) bool {
	for _, k := range r.known {
		if k.name == name {
			return k.before
		}
	}
	b := r.s.rankQueue(name, r.usage, r.total).before(r.rank)
	r.known = append(r.known, queueBefore{name, b})
	return b
}

// Victims selects running jobs to preempt so that `need` workers free
// up for the beneficiary queue. Only jobs borrowing beyond their
// queue's guarantee are eligible — a victim is never taken if removing
// it would drop its queue below quota — and candidates order by
// priority (lowest first), then recency (most recently started first,
// the cheapest work to redo). Victims from the beneficiary's own queue
// are excluded. Returns nil when eligible victims cannot cover need:
// partial preemption would checkpoint jobs without unblocking anyone.
func (s *Scheduler) Victims(beneficiary string, need int, running []Running, usage Usage, total int) []Running {
	if need <= 0 {
		return nil
	}
	cands := make([]Running, 0, len(running))
	for _, r := range running {
		if r.Queue == beneficiary || r.Workers <= 0 {
			continue
		}
		cands = append(cands, r)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Priority != cands[j].Priority {
			return cands[i].Priority < cands[j].Priority
		}
		if cands[i].StartSeq != cands[j].StartSeq {
			return cands[i].StartSeq > cands[j].StartSeq
		}
		return cands[i].Job < cands[j].Job
	})
	left := make(Usage, len(usage))
	for q, u := range usage {
		left[q] = u
	}
	var picked []Running
	freed := 0
	for _, c := range cands {
		if left[c.Queue]-c.Workers < s.QuotaWorkers(c.Queue, total) {
			continue // would dig the victim's queue below its guarantee
		}
		picked = append(picked, c)
		left[c.Queue] -= c.Workers
		if freed += c.Workers; freed >= need {
			return picked
		}
	}
	return nil
}

// ParseConfigs parses a queue forest from a flag string:
//
//	name[:key=value[,key=value...]][;name...]
//
// with keys weight, quota, over-quota-weight (or oqw) and parent, e.g.
// "tenantA:weight=7,quota=0.7;tenantB:weight=3,quota=0.3".
func ParseConfigs(spec string) ([]QueueConfig, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var cfgs []QueueConfig
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, _ := strings.Cut(part, ":")
		c := QueueConfig{Name: strings.TrimSpace(name)}
		if rest != "" {
			for _, kv := range strings.Split(rest, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return nil, fmt.Errorf("fair: queue %q: want key=value, got %q", c.Name, kv)
				}
				switch key {
				case "parent":
					c.Parent = val
					continue
				case "weight", "quota", "over-quota-weight", "oqw":
				default:
					return nil, fmt.Errorf("fair: queue %q: unknown key %q", c.Name, key)
				}
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("fair: queue %q: %s=%q: %v", c.Name, key, val, err)
				}
				switch key {
				case "weight":
					c.Weight = f
				case "quota":
					c.Quota = f
				default:
					c.OverQuotaWeight = f
				}
			}
		}
		cfgs = append(cfgs, c)
	}
	return cfgs, nil
}
