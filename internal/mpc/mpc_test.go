package mpc

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/detrand"
)

func TestNewClusterValidation(t *testing.T) {
	for _, bad := range []Config{{Machines: 0, Space: 10}, {Machines: 4, Space: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCluster(%+v) did not panic", bad)
				}
			}()
			NewCluster(bad)
		}()
	}
}

func TestRoundDeliversMessages(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Space: 100})
	err := c.Round("t", func(ctx *MachineCtx) {
		ctx.SendValues((ctx.ID+1)%3, uint64(ctx.ID))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Machines step concurrently, so each writes only its own slot.
	got := make([]uint64, 3)
	err = c.Round("t", func(ctx *MachineCtx) {
		if len(ctx.Inbox) != 1 || len(ctx.Inbox[0]) != 1 {
			t.Errorf("machine %d inbox %v", ctx.ID, ctx.Inbox)
			return
		}
		got[ctx.ID] = ctx.Inbox[0][0]
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 0 || got[2] != 1 || got[0] != 2 {
		t.Errorf("ring delivery wrong: %v", got)
	}
}

func TestRoundRejectsInvalidDestination(t *testing.T) {
	c := NewCluster(Config{Machines: 2, Space: 10})
	err := c.Round("t", func(ctx *MachineCtx) {
		ctx.SendValues(5, 1)
	})
	if err == nil {
		t.Error("sending to invalid machine did not error")
	}
}

func TestSpaceViolationStrict(t *testing.T) {
	c := NewCluster(Config{Machines: 2, Space: 4, Strict: true})
	err := c.Round("t", func(ctx *MachineCtx) {
		if ctx.ID == 0 {
			ctx.Send(1, make([]uint64, 10)) // outbox 10 > S=4
		}
	})
	if err == nil {
		t.Error("strict mode did not error on outbox violation")
	}
}

func TestSpaceViolationRecordedNonStrict(t *testing.T) {
	c := NewCluster(Config{Machines: 2, Space: 4})
	err := c.Round("t", func(ctx *MachineCtx) {
		ctx.SetStore(make([]uint64, 100))
	})
	if err != nil {
		t.Fatalf("non-strict mode errored: %v", err)
	}
	if len(c.Stats().Violations) == 0 {
		t.Error("store violation not recorded")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := NewCluster(Config{Machines: 4, Space: 100})
	for r := 0; r < 3; r++ {
		err := c.Round("phase", func(ctx *MachineCtx) {
			ctx.SendValues(0, 1, 2, 3)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Rounds != 3 {
		t.Errorf("rounds = %d", s.Rounds)
	}
	if s.Messages != 12 {
		t.Errorf("messages = %d", s.Messages)
	}
	if s.WordsSent != 36 {
		t.Errorf("words = %d", s.WordsSent)
	}
	if s.RoundsByLabel()["phase"] != 3 {
		t.Errorf("labelled rounds = %v", s.RoundsByLabel())
	}
	if s.MaxInbox != 12 {
		t.Errorf("max inbox = %d, want 12", s.MaxInbox)
	}
}

func TestLoadBalanced(t *testing.T) {
	c := NewCluster(Config{Machines: 3, Space: 10})
	data := []uint64{1, 2, 3, 4, 5, 6, 7}
	if err := c.LoadBalanced(data); err != nil {
		t.Fatal(err)
	}
	if got := c.GatherAll(); len(got) != len(data) {
		t.Fatalf("gathered %d words", len(got))
	}
	for i, w := range c.GatherAll() {
		if w != data[i] {
			t.Fatalf("word %d = %d", i, w)
		}
	}
}

func TestLoadBalancedStrictOverflow(t *testing.T) {
	c := NewCluster(Config{Machines: 2, Space: 2, Strict: true})
	if err := c.LoadBalanced(make([]uint64, 100)); err == nil {
		t.Error("overflow load did not error in strict mode")
	}
}

func sortTestData(n int, seed uint64) []uint64 {
	r := detrand.New(seed)
	data := make([]uint64, n)
	for i := range data {
		data[i] = r.Uint64() % 10000
	}
	return data
}

func TestSortCorrectness(t *testing.T) {
	for _, tc := range []struct{ machines, space, n int }{
		{1, 64, 50},
		{4, 64, 200},
		{8, 128, 1000},
		{16, 512, 5000},
	} {
		c := NewCluster(Config{Machines: tc.machines, Space: tc.space * 4, Strict: false})
		data := sortTestData(tc.n, uint64(tc.n))
		if err := c.LoadBalanced(data); err != nil {
			t.Fatal(err)
		}
		if err := Sort(c); err != nil {
			t.Fatalf("M=%d: %v", tc.machines, err)
		}
		got := c.GatherAll()
		want := append([]uint64(nil), data...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("M=%d: length %d, want %d", tc.machines, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("M=%d: position %d = %d, want %d", tc.machines, i, got[i], want[i])
			}
		}
	}
}

func TestSortConstantRounds(t *testing.T) {
	// The round count must not depend on the data size: Lemma 4's claim.
	var counts []int
	for _, n := range []int{100, 1000, 10000} {
		c := NewCluster(Config{Machines: 8, Space: 4 * n})
		if err := c.LoadBalanced(sortTestData(n, 1)); err != nil {
			t.Fatal(err)
		}
		if err := Sort(c); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, c.Stats().Rounds)
	}
	for _, r := range counts {
		if r != counts[0] {
			t.Errorf("sort rounds vary with input size: %v", counts)
		}
	}
	if counts[0] != 4 {
		t.Errorf("sort rounds = %d, want 4", counts[0])
	}
}

func TestSortRejectsTooManyMachines(t *testing.T) {
	c := NewCluster(Config{Machines: 100, Space: 10})
	if err := Sort(c); err == nil {
		t.Error("Sort with M(M-1) > S did not error")
	}
}

func TestPrefixSumCorrectness(t *testing.T) {
	for _, tc := range []struct{ machines, space, n int }{
		{1, 32, 10},
		{3, 32, 17},
		{8, 32, 100},
		{16, 16, 64}, // small space forces a multi-level tree
		{32, 8, 64},
	} {
		c := NewCluster(Config{Machines: tc.machines, Space: tc.space})
		data := make([]uint64, tc.n)
		var want uint64
		for i := range data {
			data[i] = uint64(i%7 + 1)
			want += data[i]
		}
		if err := c.LoadBalanced(data); err != nil {
			t.Fatal(err)
		}
		total, err := PrefixSum(c)
		if err != nil {
			t.Fatalf("M=%d S=%d: %v", tc.machines, tc.space, err)
		}
		if total != want {
			t.Fatalf("M=%d S=%d: total = %d, want %d", tc.machines, tc.space, total, want)
		}
		got := c.GatherAll()
		var run uint64
		for i, w := range got {
			run += data[i]
			if w != run {
				t.Fatalf("M=%d S=%d: prefix[%d] = %d, want %d", tc.machines, tc.space, i, w, run)
			}
		}
	}
}

func TestPrefixSumRoundsLogarithmic(t *testing.T) {
	// Rounds = 2*depth+1 with depth = ceil(log_f M); with constant space the
	// depth grows with M, with large space it stays 1.
	big := NewCluster(Config{Machines: 64, Space: 1024})
	if err := big.LoadBalanced(make([]uint64, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := PrefixSum(big); err != nil {
		t.Fatal(err)
	}
	if r := big.Stats().Rounds; r != 3 {
		t.Errorf("wide tree rounds = %d, want 3 (one level)", r)
	}
}

func TestBroadcast(t *testing.T) {
	for _, machines := range []int{1, 2, 7, 32} {
		c := NewCluster(Config{Machines: machines, Space: 64})
		payload := []uint64{42, 7, 9}
		got, err := Broadcast(c, payload)
		if err != nil {
			t.Fatalf("M=%d: %v", machines, err)
		}
		for id := 0; id < machines; id++ {
			if len(got[id]) != len(payload) {
				t.Fatalf("M=%d machine %d payload %v", machines, id, got[id])
			}
			for i := range payload {
				if got[id][i] != payload[i] {
					t.Fatalf("M=%d machine %d payload %v", machines, id, got[id])
				}
			}
		}
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, machines := range []int{1, 4, 16} {
		c := NewCluster(Config{Machines: machines, Space: 256})
		k := 5
		total, err := AllReduceSum(c, k, func(id int) []uint64 {
			v := make([]uint64, k)
			for i := range v {
				v[i] = uint64(id + i)
			}
			return v
		})
		if err != nil {
			t.Fatalf("M=%d: %v", machines, err)
		}
		for i := 0; i < k; i++ {
			want := uint64(0)
			for id := 0; id < machines; id++ {
				want += uint64(id + i)
			}
			if total[i] != want {
				t.Errorf("M=%d: total[%d] = %d, want %d", machines, i, total[i], want)
			}
		}
	}
}

func TestAllReduceSumLengthMismatch(t *testing.T) {
	c := NewCluster(Config{Machines: 2, Space: 64})
	_, err := AllReduceSum(c, 3, func(id int) []uint64 { return make([]uint64, id+1) })
	if err == nil {
		t.Error("length mismatch not detected")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		c := NewCluster(Config{Machines: 8, Space: 4096})
		if err := c.LoadBalanced(sortTestData(512, 3)); err != nil {
			t.Fatal(err)
		}
		if err := Sort(c); err != nil {
			t.Fatal(err)
		}
		if _, err := PrefixSum(c); err != nil {
			t.Fatal(err)
		}
		return c.GatherAll()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterminism at word %d", i)
		}
	}
}

func TestTreeDepth(t *testing.T) {
	cases := []struct{ m, f, want int }{
		{1, 2, 0}, {2, 2, 1}, {4, 2, 2}, {5, 2, 3}, {8, 2, 3},
		{9, 3, 2}, {27, 3, 3}, {16, 16, 1},
	}
	for _, c := range cases {
		if got := TreeDepth(c.m, c.f); got != c.want {
			t.Errorf("TreeDepth(%d,%d) = %d, want %d", c.m, c.f, got, c.want)
		}
	}
}

func BenchmarkSort64Machines(b *testing.B) {
	data := sortTestData(1<<14, 1)
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Machines: 64, Space: 4096})
		if err := c.LoadBalanced(data); err != nil {
			b.Fatal(err)
		}
		if err := Sort(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrefixSum(b *testing.B) {
	data := sortTestData(1<<14, 1)
	for i := 0; i < b.N; i++ {
		c := NewCluster(Config{Machines: 64, Space: 4096})
		if err := c.LoadBalanced(data); err != nil {
			b.Fatal(err)
		}
		if _, err := PrefixSum(c); err != nil {
			b.Fatal(err)
		}
	}
}

// Broadcast sends the payload from machine 0 to every machine along an f-ary
// tree in ceil(log_f M) rounds. Each machine's copy is returned. The payload
// must satisfy f*len(payload) <= S to respect outbox bounds.
func Broadcast(c *Cluster, payload []uint64) ([][]uint64, error) {
	m := c.cfg.Machines
	f := c.scanFanout(len(payload))
	depth := TreeDepth(m, f)
	got := make([][]uint64, m)
	got[0] = append([]uint64(nil), payload...)

	span := 1
	for span < m {
		span *= f
	}
	for l := depth - 1; l >= 0; l-- {
		span /= f
		if span == 0 {
			span = 1
		}
		blk := span * f
		err := c.Round("broadcast", func(ctx *MachineCtx) {
			id := ctx.ID
			if id%blk != 0 || got[id] == nil {
				return
			}
			for j := 1; j < f; j++ {
				child := id + j*span
				if child >= m {
					break
				}
				ctx.Send(child, append([]uint64(nil), got[id]...))
			}
		})
		if err != nil {
			return nil, err
		}
		for id := 0; id < m; id++ {
			for _, msg := range c.inboxes[id] {
				got[id] = msg
			}
			c.inboxes[id] = nil
		}
	}
	return got, nil
}

// AllReduceSum computes the elementwise sum of one equal-length vector per
// machine (vec(id) supplied by the callback) and returns the total vector,
// which is also delivered to every machine via Broadcast. Vector length k
// must satisfy f*k <= S. Rounds: 2*ceil(log_f M).
//
// This primitive is the message-level realisation of one "voting" step of
// the method of conditional expectations (Section 2.4): each machine
// contributes its local objective value for each of k candidate seed
// extensions, and the summed vector tells every machine which extension to
// fix.
func AllReduceSum(c *Cluster, k int, vec func(id int) []uint64) ([]uint64, error) {
	m := c.cfg.Machines
	f := c.scanFanout(k)
	depth := TreeDepth(m, f)
	acc := make([][]uint64, m)
	for id := 0; id < m; id++ {
		v := vec(id)
		if len(v) != k {
			return nil, fmt.Errorf("mpc: AllReduceSum vector length %d != %d on machine %d", len(v), k, id)
		}
		acc[id] = append([]uint64(nil), v...)
	}
	span := 1
	for l := 0; l < depth; l++ {
		blk := span * f
		err := c.Round("allreduce", func(ctx *MachineCtx) {
			id := ctx.ID
			if id%span != 0 {
				return
			}
			pos := (id / span) % f
			if pos != 0 {
				parent := id - pos*span
				ctx.Send(parent, append([]uint64(nil), acc[id]...))
			}
		})
		if err != nil {
			return nil, err
		}
		for id := 0; id < m; id += blk {
			for _, msg := range c.inboxes[id] {
				for i, w := range msg {
					acc[id][i] += w
				}
			}
			c.inboxes[id] = nil
		}
		span = blk
	}
	total := append([]uint64(nil), acc[0]...)
	if _, err := Broadcast(c, total); err != nil {
		return nil, err
	}
	return total, nil
}
