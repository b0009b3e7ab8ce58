// Package memstore is the live runtime's block-granular input-data store
// with spill and reload (§IV-C): a fraction α of a job's input blocks
// lives on disk and is streamed back in the background before each COMP
// subtask needs it, bounding the resident heap while keeping compute
// unblocked.
package memstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"harmony/internal/metrics"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("memstore: store closed")

// EventKind classifies residency-change notifications.
type EventKind int

// Residency events. Evict fires when a block leaves memory for disk
// (the §IV-C spiller); Reload fires when a spilled block returns, whether
// by the background reloader or a blocking Get.
const (
	Evict EventKind = iota + 1
	Reload
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case Evict:
		return "evict"
	case Reload:
		return "reload"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one residency change of one block. Consumers (the worker's
// decoded-block cache) use Evict to invalidate derived state: a spilled
// block's payload pointer is dead, and serving stale decodes would let
// compute dodge the reload cost the spiller is modeling.
type Event struct {
	Kind EventKind
	ID   int
}

// Block is one unit of spillable data.
type Block struct {
	// ID is unique within the store.
	ID int
	// Payload is opaque bytes, written to disk as they are when the block
	// spills (the live runtime stores encoded mlapp examples).
	Payload []byte
}

// Store manages a job's input blocks across memory and disk. It is safe
// for concurrent use; the background reloader runs in its own goroutine.
type Store struct {
	mu       sync.Mutex
	cond     *sync.Cond
	dir      string
	resident map[int]*Block
	onDisk   map[int]string // block id -> file path
	alpha    float64
	order    []int // all block ids, spill priority order
	closed   bool

	reloadCh chan int
	done     chan struct{}

	// notify receives residency events; see SetNotify.
	notify func(Event)

	// Stats.
	spills     int
	reloads    int
	stallNanos int64
}

// Open creates a store that spills into dir (created if needed).
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memstore: %w", err)
	}
	s := &Store{
		dir:      dir,
		resident: make(map[int]*Block),
		onDisk:   make(map[int]string),
		reloadCh: make(chan int, 64),
		done:     make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.reloader()
	return s, nil
}

// SetNotify installs the residency-event callback. The callback runs with
// the store lock held (so an Evict is delivered before any Get can
// observe the block gone) and therefore must not call back into the
// Store. Pass nil to remove it.
func (s *Store) SetNotify(fn func(Event)) {
	s.mu.Lock()
	s.notify = fn
	s.mu.Unlock()
}

func (s *Store) notifyLocked(kind EventKind, id int) {
	if s.notify != nil {
		s.notify(Event{Kind: kind, ID: id})
	}
}

// Put registers a block, initially resident.
func (s *Store) Put(b *Block) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.resident[b.ID]; dup {
		return fmt.Errorf("memstore: duplicate block %d", b.ID)
	}
	if _, dup := s.onDisk[b.ID]; dup {
		return fmt.Errorf("memstore: duplicate block %d", b.ID)
	}
	s.resident[b.ID] = b
	s.order = append(s.order, b.ID)
	return nil
}

// SetAlpha adjusts the disk-side ratio α and rebalances: blocks are
// spilled synchronously (cheap: a file write) while reloads happen in the
// background.
func (s *Store) SetAlpha(alpha float64) error {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.alpha = alpha
	return s.rebalanceLocked()
}

// Alpha reports the current disk-side ratio target.
func (s *Store) Alpha() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alpha
}

// rebalanceLocked moves blocks to match α: the first ⌈α·n⌉ ids in spill
// order live on disk, the rest in memory.
func (s *Store) rebalanceLocked() error {
	n := len(s.order)
	wantDisk := int(float64(n)*s.alpha + 0.5)
	for i, id := range s.order {
		if i < wantDisk {
			if b, ok := s.resident[id]; ok {
				if err := s.spillLocked(b); err != nil {
					return err
				}
			}
		} else if _, ok := s.onDisk[id]; ok {
			// Queue a background reload.
			select {
			case s.reloadCh <- id:
			default:
				// Reloader busy; it will catch up on the next Get or
				// rebalance.
			}
		}
	}
	return nil
}

func (s *Store) spillLocked(b *Block) error {
	path := filepath.Join(s.dir, fmt.Sprintf("block-%d", b.ID))
	if err := os.WriteFile(path, b.Payload, 0o644); err != nil {
		return fmt.Errorf("memstore: spill block %d: %w", b.ID, err)
	}
	delete(s.resident, b.ID)
	s.onDisk[b.ID] = path
	s.spills++
	s.notifyLocked(Evict, b.ID)
	return nil
}

// Get returns a block, reloading it synchronously if it is on disk (a
// blocked COMP subtask — the stall §IV-C tries to avoid).
func (s *Store) Get(id int) (*Block, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, ErrClosed
		}
		if b, ok := s.resident[id]; ok {
			return b, nil
		}
		if _, ok := s.onDisk[id]; ok {
			// A blocked COMP subtask: the reloader has not caught up, so
			// this Get pays the disk latency inline. Track it — the profiled
			// T_cpu the scheduler feeds Algorithm 1 includes these stalls.
			start := time.Now()
			b, err := s.loadLocked(id)
			if err != nil {
				return nil, err
			}
			stall := time.Since(start)
			s.stallNanos += int64(stall)
			metrics.Comp.ObserveReloadStall(stall)
			return b, nil
		}
		return nil, fmt.Errorf("memstore: unknown block %d", id)
	}
}

func (s *Store) loadLocked(id int) (*Block, error) {
	payload, err := os.ReadFile(s.onDisk[id])
	if err != nil {
		return nil, fmt.Errorf("memstore: reload block %d: %w", id, err)
	}
	b := Block{ID: id, Payload: payload}
	delete(s.onDisk, id)
	s.resident[id] = &b
	s.reloads++
	s.notifyLocked(Reload, id)
	// Keep the spill file: re-spilling the block later becomes free, and
	// Close removes the directory anyway.
	return &b, nil
}

// Prefetch queues a background reload so a later Get does not block.
func (s *Store) Prefetch(id int) {
	select {
	case s.reloadCh <- id:
	default:
	}
}

// reloader streams queued blocks back into memory.
func (s *Store) reloader() {
	for {
		select {
		case <-s.done:
			return
		case id := <-s.reloadCh:
			s.mu.Lock()
			if !s.closed {
				if _, onDisk := s.onDisk[id]; onDisk {
					// Only reload blocks the α target wants resident.
					n := len(s.order)
					wantDisk := int(float64(n)*s.alpha + 0.5)
					pos := -1
					for i, oid := range s.order {
						if oid == id {
							pos = i
							break
						}
					}
					if pos >= wantDisk {
						_, _ = s.loadLocked(id)
					}
				}
			}
			s.mu.Unlock()
		}
	}
}

// Stats reports resident/disk block counts and cumulative spill/reload
// operations.
func (s *Store) Stats() (resident, onDisk, spills, reloads int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.resident), len(s.onDisk), s.spills, s.reloads
}

// StallSeconds reports the cumulative wall time synchronous Gets spent
// reloading spilled blocks — the §IV-C stall the background reloader
// exists to hide.
func (s *Store) StallSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.stallNanos).Seconds()
}

// Blocks reports how many blocks the store manages.
func (s *Store) Blocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Close stops the reloader and removes spill files.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	return os.RemoveAll(s.dir)
}
