// Package mpc implements a message-level simulator of the Massively
// Parallel Computation model of Karloff et al. as used in the paper: M
// machines with S words of local space each, computing in synchronous
// rounds. Within a round every machine performs arbitrary local computation
// on its store and inbox, then emits messages; all messages sent or received
// by a machine in one round must fit in its space S, which the simulator
// enforces.
//
// On top of the raw cluster, this package provides the deterministic
// communication primitives of Lemma 4 (Goodrich et al.): constant-round
// sorting (regular-sampling sample sort) and prefix sums (S-ary aggregation
// trees). Experiment T8 runs them at several scales to confirm the
// constant-round claim; the algorithm layer (internal/simcost) charges
// rounds using the very same constants these implementations achieve.
//
// Machines execute concurrently on the host (one goroutine per worker, fixed
// pool) but the simulated semantics are deterministic: machine steps are
// pure functions of (store, inbox), and inboxes are assembled in sender
// order, so results never depend on host scheduling.
package mpc

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/intmath"
	"repro/internal/parallel"
)

// Config describes a cluster.
type Config struct {
	Machines int // M > 0
	Space    int // S, words per machine
	// Strict makes space violations fail the round with an error;
	// otherwise they are recorded in Stats.Violations and execution
	// continues (useful for ablation experiments that demonstrate a
	// violation would occur).
	Strict bool
	// Workers bounds the host goroutines that execute machine steps each
	// round (the shared internal/parallel pool): 0 means GOMAXPROCS,
	// 1 serial. Simulated semantics are identical at any setting — machine
	// steps are pure functions of (store, inbox) and message delivery is
	// ordered by sender id — so this only trades wall-clock time.
	Workers int
}

// Stats accumulates execution metrics across rounds.
type Stats struct {
	Rounds        int
	Messages      int64
	WordsSent     int64
	MaxInbox      int // peak per-machine inbox words in any round
	MaxOutbox     int // peak per-machine outbox words in any round
	MaxStore      int // peak per-machine store words after any round
	Violations    []string
	roundsByLabel map[string]int
}

// RoundsByLabel returns the number of rounds charged per label (primitives
// label their rounds, e.g. "sort", "prefixsum").
func (s Stats) RoundsByLabel() map[string]int {
	out := make(map[string]int, len(s.roundsByLabel))
	maps.Copy(out, s.roundsByLabel)
	return out
}

// Msg is a point-to-point message of Data words delivered next round.
type Msg struct {
	To   int
	Data []uint64
}

// MachineCtx is the view a machine has during one round: its id, persistent
// store, and the messages received at the end of the previous round. Send
// queues outgoing messages. Store may be reassigned via SetStore.
type MachineCtx struct {
	ID    int
	Inbox [][]uint64
	store []uint64
	out   []Msg
}

// Store returns the machine's persistent local memory.
func (m *MachineCtx) Store() []uint64 { return m.store }

// SetStore replaces the machine's persistent local memory.
func (m *MachineCtx) SetStore(s []uint64) { m.store = s }

// Send queues a message to machine `to` containing data. The slice is taken
// over by the cluster; callers must not reuse it.
func (m *MachineCtx) Send(to int, data []uint64) {
	m.out = append(m.out, Msg{To: to, Data: data})
}

// SendValues is a convenience wrapper allocating the payload.
func (m *MachineCtx) SendValues(to int, values ...uint64) {
	m.Send(to, append([]uint64(nil), values...))
}

// StepFunc is the local computation a machine performs in a round.
type StepFunc func(*MachineCtx)

// Cluster is a simulated MPC cluster. Create with NewCluster; the zero value
// is unusable.
type Cluster struct {
	cfg     Config
	stores  [][]uint64
	inboxes [][][]uint64
	stats   Stats
	workers int
	// Per-round scratch, sized once at construction and reused every round
	// so a multi-round simulation is allocation-flat: the machine contexts
	// (reset in place) and the previous round's inbox table (truncated and
	// refilled as the next round's delivery target).
	ctxs      []*MachineCtx
	spareInbx [][][]uint64
}

// NewCluster returns a cluster with empty stores and inboxes.
func NewCluster(cfg Config) *Cluster {
	c := &Cluster{
		cfg:     cfg,
		workers: parallel.Workers(cfg.Workers),
	}
	if cfg.Machines <= 0 {
		panic("mpc: Machines must be positive")
	}
	if cfg.Space <= 0 {
		panic("mpc: Space must be positive")
	}
	c.stores = make([][]uint64, cfg.Machines)
	c.inboxes = make([][][]uint64, cfg.Machines)
	c.spareInbx = make([][][]uint64, cfg.Machines)
	c.ctxs = make([]*MachineCtx, cfg.Machines)
	for i := range c.ctxs {
		c.ctxs[i] = &MachineCtx{ID: i}
	}
	return c
}

// Stats returns a snapshot of the execution metrics.
func (c *Cluster) Stats() Stats {
	s := c.stats
	s.Violations = append([]string(nil), c.stats.Violations...)
	return s
}

// wordsOf returns the total words across a message batch.
func wordsOf(msgs [][]uint64) int {
	total := 0
	for _, m := range msgs {
		total += len(m)
	}
	return total
}

// stepWordWork is what a machine step costs per store or inbox word in
// internal/parallel's work unit (about one CSR word read). It is the
// heaviest step's: Sort's local sort took 38–65 ns per word at Parallelism
// 1 on 4096–65536 words over 8 or 32 machines. Lighter steps (the prefix
// sums, under 1 ns per word) are overstated, which keeps them on the pool.
const stepWordWork = 64

// Round executes one synchronous round: every machine runs step on its
// (store, inbox), then messages are exchanged. The label attributes the
// round in Stats.RoundsByLabel. Returns an error in Strict mode if any
// machine violates its space bound.
func (c *Cluster) Round(label string, step StepFunc) error {
	m := c.cfg.Machines
	ctxs := c.ctxs
	// Machine steps fan out over the bounded shared pool; each machine
	// writes only its own (persistent, reset-in-place) ctx, and the
	// collection pass below runs in deterministic machine order, so host
	// scheduling is unobservable. The round's work is its machines' store
	// and inbox words, stepWordWork units each.
	words := 0
	for id := 0; id < m; id++ {
		words += len(c.stores[id]) + wordsOf(c.inboxes[id])
	}
	parallel.ForEach(c.workers, m, intmath.SatMul(words, stepWordWork), func(id int) {
		ctx := ctxs[id]
		ctx.ID = id
		ctx.Inbox = c.inboxes[id]
		ctx.store = c.stores[id]
		ctx.out = ctx.out[:0]
		step(ctx)
	})

	// Collect outboxes and validate space in deterministic machine order.
	// The previous round's inbox table is recycled as the delivery target:
	// entries are cleared before truncation so stale message payloads from
	// two rounds ago are released rather than pinned by the slack capacity.
	newInboxes := c.spareInbx
	for id := range newInboxes {
		clear(newInboxes[id])
		newInboxes[id] = newInboxes[id][:0]
	}
	var violations []string
	for id := 0; id < m; id++ {
		ctx := ctxs[id]
		c.stores[id] = ctx.store
		if len(ctx.store) > c.stats.MaxStore {
			c.stats.MaxStore = len(ctx.store)
		}
		outWords := 0
		for _, msg := range ctx.out {
			if msg.To < 0 || msg.To >= m {
				return fmt.Errorf("mpc: round %d machine %d sent to invalid machine %d", c.stats.Rounds, id, msg.To)
			}
			outWords += len(msg.Data)
			c.stats.Messages++
			c.stats.WordsSent += int64(len(msg.Data))
			newInboxes[msg.To] = append(newInboxes[msg.To], msg.Data)
		}
		if outWords > c.stats.MaxOutbox {
			c.stats.MaxOutbox = outWords
		}
		if outWords > c.cfg.Space {
			violations = append(violations, fmt.Sprintf("round %d machine %d outbox %d > S=%d [%s]", c.stats.Rounds, id, outWords, c.cfg.Space, label))
		}
		if len(ctx.store) > c.cfg.Space {
			violations = append(violations, fmt.Sprintf("round %d machine %d store %d > S=%d [%s]", c.stats.Rounds, id, len(ctx.store), c.cfg.Space, label))
		}
	}
	for id := 0; id < m; id++ {
		if w := wordsOf(newInboxes[id]); w > c.cfg.Space {
			violations = append(violations, fmt.Sprintf("round %d machine %d inbox %d > S=%d [%s]", c.stats.Rounds, id, w, c.cfg.Space, label))
		} else if w > c.stats.MaxInbox {
			c.stats.MaxInbox = w
		}
	}
	c.spareInbx = c.inboxes
	c.inboxes = newInboxes
	c.stats.Rounds++
	if c.stats.roundsByLabel == nil {
		c.stats.roundsByLabel = make(map[string]int)
	}
	c.stats.roundsByLabel[label]++
	if len(violations) > 0 {
		c.stats.Violations = append(c.stats.Violations, violations...)
		if c.cfg.Strict {
			return fmt.Errorf("mpc: space violations: %v", violations)
		}
	}
	return nil
}

// GatherAll concatenates all stores in machine order (test/inspection
// helper; not an MPC operation).
func (c *Cluster) GatherAll() []uint64 {
	var all []uint64
	for _, s := range c.stores {
		all = append(all, s...)
	}
	return all
}

// LoadBalanced splits data evenly across machines in order: machine i gets
// the i-th contiguous chunk. Returns an error if a chunk exceeds S.
func (c *Cluster) LoadBalanced(data []uint64) error {
	m := c.cfg.Machines
	per := (len(data) + m - 1) / m
	if per > c.cfg.Space {
		if c.cfg.Strict {
			return fmt.Errorf("mpc: %d words over %d machines needs %d > S=%d per machine", len(data), m, per, c.cfg.Space)
		}
		c.stats.Violations = append(c.stats.Violations, fmt.Sprintf("load: chunk %d > S=%d", per, c.cfg.Space))
	}
	for i := 0; i < m; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(data) {
			lo = len(data)
		}
		if hi > len(data) {
			hi = len(data)
		}
		c.stores[i] = append([]uint64(nil), data[lo:hi]...)
	}
	return nil
}

// sortStore sorts a store ascending (local computation helper;
// allocation-free so per-round machine steps stay cheap).
func sortStore(s []uint64) {
	slices.Sort(s)
}
