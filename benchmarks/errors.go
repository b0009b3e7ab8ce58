package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Outcomes an operation may have without anything being wrong. They are
// counted per kind and reported; they never fail a run.
type outcomeKind string

const (
	// outcomeHeld: a submit was accepted into the held queue (202).
	outcomeHeld outcomeKind = "held"
	// outcomeAdmitted: a submit was placed at once (201).
	outcomeAdmitted outcomeKind = "admitted"
	// outcomeCancelRaced: a cancel hit a job that a drain pass had just
	// started (200, a running job was canceled) or that had just finished
	// (409).
	outcomeCancelRaced outcomeKind = "cancel_raced"
	// outcomeReadGone: a status read hit a name the master has not indexed
	// yet or no longer serves (404 between held and deployed).
	outcomeReadGone outcomeKind = "read_gone"
	// outcomeCancelGone: a cancel hit a held job in the same gap (404: a
	// drain pass had taken it off the held queue and not yet listed it as
	// deployed); the job goes on to run.
	outcomeCancelGone outcomeKind = "cancel_gone"
	// outcomeDeployAfterDrop: a loadJob or startJob of a job that a cancel
	// caught in the middle of its deployment reached the stub fleet after the
	// cancel's dropJob; the fleet acks and ignores it.
	outcomeDeployAfterDrop outcomeKind = "deploy_after_drop"
)

// Infrastructure errors mean the rig itself broke (a dial failed, the server
// answered 5xx, an RPC timed out, the stub fleet and the master disagree, the
// generator fell behind): the numbers of such a run are worthless, so it
// stops at once instead of counting them.
var (
	errDial       = errors.New("dial failure")
	errServer5xx  = errors.New("server error status")
	errRPCTimeout = errors.New("rpc timeout")
	errDesync     = errors.New("stub fleet desync")
	errGenerator  = errors.New("load generator fell behind")
)

// isInfrastructure reports whether err carries one of the infrastructure
// sentinels. A run that hits one aborts at once and prints no result.
func isInfrastructure(err error) bool {
	for _, sentinel := range []error{errDial, errServer5xx, errRPCTimeout, errDesync, errGenerator} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// infra wraps an infrastructure sentinel with the operation that hit it.
func infra(sentinel error, format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), sentinel)
}

// outcomes tallies expected outcomes and unexpected HTTP statuses; what names
// the first few of the latter for the report.
type outcomes struct {
	mu         sync.Mutex
	kinds      map[outcomeKind]int
	unexpected int
	what       []string
}

func newOutcomes() *outcomes { return &outcomes{kinds: make(map[outcomeKind]int)} }

func (o *outcomes) note(kind outcomeKind) { o.noteN(kind, 1) }

func (o *outcomes) noteN(kind outcomeKind, n int) {
	if n == 0 {
		return
	}
	o.mu.Lock()
	o.kinds[kind] += n
	o.mu.Unlock()
}

func (o *outcomes) noteUnexpected(op string, status int) {
	o.mu.Lock()
	o.unexpected++
	if len(o.what) < 8 {
		o.what = append(o.what, fmt.Sprintf("unexpected status %d from %s", status, op))
	}
	o.mu.Unlock()
}

func (o *outcomes) merge(other *outcomes) {
	other.mu.Lock()
	defer other.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, n := range other.kinds {
		o.kinds[k] += n
	}
	o.unexpected += other.unexpected
	o.what = append(o.what, other.what...)
}

// unexpectedWhat names the unexpected statuses that were described.
func (o *outcomes) unexpectedWhat() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.what...)
}

func (o *outcomes) snapshot() (map[string]int, int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make(map[string]int, len(o.kinds))
	for k, n := range o.kinds {
		out[string(k)] = n
	}
	return out, o.unexpected
}

func formatOutcomes(kinds map[string]int) string {
	if len(kinds) == 0 {
		return "none"
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s=%d", k, kinds[k])
	}
	return strings.Join(parts, " ")
}
