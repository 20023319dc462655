package scratch

import (
	"testing"

	"repro/internal/graph"
)

func TestSlabCheckoutIsZeroed(t *testing.T) {
	c := New()
	b := c.Bools(8)
	for i := range b {
		b[i] = true
	}
	c.Reset()
	b2 := c.Bools(8)
	for i, v := range b2 {
		if v {
			t.Fatalf("slab not zeroed at %d after reuse", i)
		}
	}
	if &b[0] != &b2[0] {
		t.Fatal("same-size checkout after Reset did not reuse the slab")
	}
}

func TestSlabBestFitAndShrinkingRounds(t *testing.T) {
	c := New()
	big := c.Ints(1000)
	small := c.Ints(10)
	if &big[0] == &small[0] {
		t.Fatal("live slabs must be distinct")
	}
	c.Reset()
	// A shrinking working set must be served by the existing slabs (the
	// geometric-decay reuse property), best fit first.
	s := c.Ints(10)
	if cap(s) != 10 {
		t.Fatalf("best fit picked cap %d, want 10", cap(s))
	}
	m := c.Ints(500)
	if cap(m) != 1000 {
		t.Fatalf("second checkout picked cap %d, want the 1000 slab", cap(m))
	}
}

func TestGetCapAppendStyle(t *testing.T) {
	c := New()
	e := c.EdgesCap(4)
	if len(e) != 0 || cap(e) < 4 {
		t.Fatalf("EdgesCap: len=%d cap=%d", len(e), cap(e))
	}
	e = append(e, graph.Edge{U: 0, V: 1})
	c.Reset()
	e2 := c.EdgesCap(4)
	if cap(e2) < 4 {
		t.Fatal("EdgesCap slab lost on Reset")
	}
}

func TestBufPairAlternates(t *testing.T) {
	var p BufPair
	a := p.Next()
	b := p.Next()
	if a == b {
		t.Fatal("BufPair.Next returned the same buffer twice in a row")
	}
	if p.Next() != a {
		t.Fatal("BufPair does not ping-pong")
	}
}

func TestPerWorkerReuses(t *testing.T) {
	type buf struct{ data []int }
	p := NewPerWorker(func() *buf { return &buf{data: make([]int, 4)} })
	v := p.Get()
	v.data[0] = 7
	p.Put(v)
	w := p.Get()
	if w != v {
		t.Skip("sync.Pool dropped the value (GC ran); nothing to assert")
	}
	if w.data[0] != 7 {
		t.Fatal("pooled value not preserved")
	}
}
