package core

import (
	"reflect"
	"testing"

	"pandia/internal/machine"
	"pandia/internal/placement"
)

// churn drives a deterministic randomized job-churn sequence over disjoint
// slot regions of the machine, so placements never overlap. Each of the four
// slots owns a fixed quarter of the context space and is either empty or
// holds one job placed inside its region.
type churn struct {
	md    *machine.Description
	slots [4]placement.Placement // nil = empty
	ws    [4]*Workload
	x     uint32
}

func newChurnState(seed uint32) *churn {
	c := &churn{md: quickMachine(), x: seed*2654435761 + 1}
	for i := range c.ws {
		b := uint8(37*i + 11)
		c.ws[i] = quickWorkload(b, b+40, b+90, b+140, b+190, b+230, b+17)
		c.ws[i].Name = "churn-" + string(rune('a'+i))
	}
	return c
}

func (c *churn) rand() uint32 {
	c.x = c.x*1664525 + 1013904223
	return c.x >> 8
}

// place builds a placement of n contexts inside slot i's quarter.
func (c *churn) place(i, n int) placement.Placement {
	total := c.md.Topo.TotalContexts()
	width := total / len(c.slots)
	if n > width {
		n = width
	}
	var p placement.Placement
	for k := 0; k < n; k++ {
		p = append(p, c.md.Topo.ContextAt(i*width+k))
	}
	return p
}

// step applies one churn operation (join, leave, move, or repeat) and
// reports the resulting placed-workload mix.
func (c *churn) step() []PlacedWorkload {
	i := int(c.rand()) % len(c.slots)
	switch c.rand() % 4 {
	case 0: // join (or grow if occupied)
		c.slots[i] = c.place(i, 1+int(c.rand())%6)
	case 1: // leave
		c.slots[i] = nil
	case 2: // move: re-place the same job with a different thread count
		if c.slots[i] != nil {
			c.slots[i] = c.place(i, 1+int(c.rand())%6)
		}
	case 3: // repeat: unchanged mix
	}
	return c.placed()
}

func (c *churn) placed() []PlacedWorkload {
	var out []PlacedWorkload
	for i, p := range c.slots {
		if p != nil {
			out = append(out, PlacedWorkload{Workload: c.ws[i], Placement: p})
		}
	}
	return out
}

// TestCoPredictorChurnBitIdentical is the randomized differential test of
// engine-scratch reuse: a persistent CoPredictor under default options must
// return bit-identical predictions to a fresh PredictCoSchedule at every
// step of a randomized join/leave/move/repeat churn sequence.
func TestCoPredictorChurnBitIdentical(t *testing.T) {
	for _, seed := range []uint32{1, 7, 42, 1234} {
		c := newChurnState(seed)
		cp, err := NewCoPredictor(c.md, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 60; step++ {
			placed := c.step()
			if len(placed) == 0 {
				continue
			}
			got, err := cp.Predict(placed)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			cold, err := PredictCoSchedule(c.md, placed, Options{})
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !reflect.DeepEqual(got, cold) {
				t.Fatalf("seed %d step %d: CoPredictor diverged from cold solve\ngot:  %+v\ncold: %+v",
					seed, step, got, cold)
			}
		}
	}
}
