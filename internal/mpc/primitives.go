package mpc

import (
	"fmt"
	"sort"
)

// This file implements the Lemma 4 toolbox (Goodrich et al. [30]) on the
// message-level cluster: deterministic constant-round sorting and prefix
// sums. The tests add a broadcast and an all-reduce over the same f-ary
// aggregation tree, whose depth internal/simcost charges for seed batches
// and scans; no solver calls them.
//
// Round counts achieved (and asserted by tests):
//
//	Sort        4 rounds (regular-sampling sample sort)
//	PrefixSum   2*ceil(log_f M) + 1 rounds, f = max(2, S/4)
//	Broadcast   ceil(log_f M) rounds (tests)
//	AllReduce   2*ceil(log_f M) rounds (tests)
//
// With S = n^ε and M·S = Θ(n^{1+ε}) these are all O(1/ε) = O(1) rounds,
// which is exactly the constant-round claim of Lemma 4. The algorithm layer
// (internal/simcost) charges rounds with the same formulas.

// Sort sorts the union of all machine stores ascending and redistributes the
// result so machine i holds the i-th contiguous run of the global order
// (balanced to ±1 of N/M except for sampling skew). It requires
// M*(M-1) <= S so the splitter election fits on one machine, which holds for
// all experiment configurations; it returns an error otherwise.
func Sort(c *Cluster) error {
	m := c.cfg.Machines
	if m == 1 {
		sortStore(c.stores[0])
		return c.Round("sort", func(ctx *MachineCtx) {})
	}
	if m*(m-1) > c.cfg.Space {
		return fmt.Errorf("mpc: Sort needs M(M-1)=%d <= S=%d", m*(m-1), c.cfg.Space)
	}

	// Round 1: local sort; send M-1 evenly spaced samples to machine 0.
	err := c.Round("sort", func(ctx *MachineCtx) {
		sortStore(ctx.Store())
		s := ctx.Store()
		samples := make([]uint64, 0, m-1)
		for j := 1; j < m; j++ {
			if len(s) == 0 {
				break
			}
			idx := j * len(s) / m
			if idx >= len(s) {
				idx = len(s) - 1
			}
			samples = append(samples, s[idx])
		}
		ctx.Send(0, samples)
	})
	if err != nil {
		return err
	}

	// Round 2: machine 0 sorts all samples, picks M-1 splitters, broadcasts.
	err = c.Round("sort", func(ctx *MachineCtx) {
		if ctx.ID != 0 {
			return
		}
		var all []uint64
		for _, msg := range ctx.Inbox {
			all = append(all, msg...)
		}
		sortStore(all)
		splitters := make([]uint64, 0, m-1)
		for j := 1; j < m; j++ {
			if len(all) == 0 {
				break
			}
			idx := j * len(all) / m
			if idx >= len(all) {
				idx = len(all) - 1
			}
			splitters = append(splitters, all[idx])
		}
		for to := 0; to < m; to++ {
			ctx.Send(to, append([]uint64(nil), splitters...))
		}
	})
	if err != nil {
		return err
	}

	// Round 3: partition local (sorted) data by splitters; bucket j goes to
	// machine j.
	err = c.Round("sort", func(ctx *MachineCtx) {
		var splitters []uint64
		for _, msg := range ctx.Inbox {
			splitters = msg
		}
		s := ctx.Store()
		start := 0
		for j := 0; j < m; j++ {
			end := len(s)
			if j < len(splitters) {
				end = sort.Search(len(s), func(i int) bool { return s[i] > splitters[j] })
			}
			if end < start {
				end = start
			}
			if end > start {
				ctx.Send(j, append([]uint64(nil), s[start:end]...))
			}
			start = end
		}
		ctx.SetStore(nil)
	})
	if err != nil {
		return err
	}

	// Round 4: merge received buckets.
	return c.Round("sort", func(ctx *MachineCtx) {
		var all []uint64
		for _, msg := range ctx.Inbox {
			all = append(all, msg...)
		}
		sortStore(all)
		ctx.SetStore(all)
	})
}

// scanFanout returns the aggregation-tree fanout for payloads of k words
// per child: S/(4k) clamped to [2, M], so that a parent's inbox of one
// payload per child fits comfortably in S.
func (c *Cluster) scanFanout(k int) int {
	if k < 1 {
		k = 1
	}
	f := c.cfg.Space / (4 * k)
	if f > c.cfg.Machines {
		f = c.cfg.Machines
	}
	if f < 2 {
		f = 2 // TreeDepth(1, 2) == 0, so M == 1 still works
	}
	return f
}

// TreeDepth returns ceil(log_f(m)) for m >= 1: the number of levels in the
// aggregation tree (0 when m == 1).
func TreeDepth(m, f int) int {
	if f < 2 {
		panic("mpc: fanout must be >= 2")
	}
	depth := 0
	span := 1
	for span < m {
		span *= f
		depth++
	}
	return depth
}

// scanNode is the per-machine protocol state of PrefixSum. It is
// semantically part of the machine's local memory: childSums holds at most
// f-1 words per tree level.
type scanNode struct {
	subtreeSum uint64
	childSums  [][]uint64 // per level: sums of children 1..f-1 (index j-1)
	offset     uint64
}

// ownSubSum returns the sum of node id's own sub-block below level lvl, i.e.
// the block [id, id+f^lvl): the full subtree sum minus all children merged
// at levels >= lvl.
func (n *scanNode) ownSubSum(lvl int) uint64 {
	sum := n.subtreeSum
	for l := lvl; l < len(n.childSums); l++ {
		for _, s := range n.childSums[l] {
			sum -= s
		}
	}
	return sum
}

// PrefixSum computes the exclusive global prefix sums of the concatenation
// of machine stores: afterwards each machine's store is replaced by its
// running inclusive prefix sums offset by the sum of all words on machines
// before it. The global total is returned.
//
// Protocol: up-sweep of per-subtree sums along an f-ary tree, down-sweep of
// offsets, one final local pass. 2*ceil(log_f M)+1 rounds.
func PrefixSum(c *Cluster) (total uint64, err error) {
	m := c.cfg.Machines
	f := c.scanFanout(2)
	depth := TreeDepth(m, f)

	state := make([]scanNode, m)
	for i, s := range c.stores {
		var sum uint64
		for _, w := range s {
			sum += w
		}
		state[i].subtreeSum = sum
		state[i].childSums = make([][]uint64, depth)
	}

	// Up-sweep: level l merges blocks of size f^l into f^(l+1).
	span := 1
	for l := 0; l < depth; l++ {
		lvl := l
		blk := span * f
		err = c.Round("prefixsum", func(ctx *MachineCtx) {
			id := ctx.ID
			if id%span != 0 {
				return // not a level-l node
			}
			pos := (id / span) % f
			if pos != 0 {
				parent := id - pos*span
				ctx.SendValues(parent, uint64(pos), state[id].subtreeSum)
			}
		})
		if err != nil {
			return 0, err
		}
		// Deliver: parents fold child sums (reading inboxes is part of the
		// *next* round in the raw model; we fold here for clarity and charge
		// no extra round since the fold happens inside the next Round call's
		// step in a fully literal implementation).
		for id := 0; id < m; id += blk {
			sums := make([]uint64, f-1)
			for _, msg := range c.inboxes[id] {
				if len(msg) == 2 {
					sums[int(msg[0])-1] = msg[1]
				}
			}
			state[id].childSums[lvl] = sums
			for _, s := range sums {
				state[id].subtreeSum += s
			}
			c.inboxes[id] = nil
		}
		span = blk
	}
	total = state[0].subtreeSum

	// Down-sweep: root's offset is 0; parents hand children their offsets.
	state[0].offset = 0
	for l := depth - 1; l >= 0; l-- {
		span /= f
		lvl := l
		err = c.Round("prefixsum", func(ctx *MachineCtx) {
			id := ctx.ID
			blk := span * f
			if id%blk != 0 {
				return // not a parent at this level
			}
			// Child j covers [id + j*span, ...); its offset is the parent
			// offset plus the parent's own sub-block plus children < j. The
			// parent's own sub-block keeps the parent's offset.
			cum := state[id].offset + state[id].ownSubSum(lvl)
			for j := 1; j < f; j++ {
				child := id + j*span
				if child >= m {
					break
				}
				ctx.SendValues(child, cum)
				cum += state[id].childSums[lvl][j-1]
			}
		})
		if err != nil {
			return 0, err
		}
		for id := 0; id < m; id++ {
			for _, msg := range c.inboxes[id] {
				if len(msg) == 1 {
					state[id].offset = msg[0]
				}
			}
			c.inboxes[id] = nil
		}
	}

	// Final local pass: replace stores with running prefix sums.
	err = c.Round("prefixsum", func(ctx *MachineCtx) {
		s := ctx.Store()
		run := state[ctx.ID].offset
		for i, w := range s {
			run += w
			s[i] = run
		}
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}
