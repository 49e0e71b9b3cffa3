package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"pandia/internal/machine"
	"pandia/internal/topology"
)

// referenceCoKey is the joint-prediction key computed the long way: the
// canonical byte stream of the mix (every integer and float as eight
// little-endian bytes, strings length-prefixed), hashed one byte at a time
// by hash/fnv's FNV-1a and by the verifier's own byte loop. It shares no
// code with canonHash, so it pins the key bytes against both the
// prefix/extend split and canonHash's word fast path.
func referenceCoKey(c *CoCache, md *machine.Description, placed []PlacedWorkload, opt Options) (uint64, uint64) {
	var b []byte
	word := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	i := func(v int) { word(uint64(int64(v))) }
	f := func(v float64) { word(math.Float64bits(v)) }
	str := func(v string) { i(len(v)); b = append(b, v...) }
	flag := func(v bool) {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	word(c.epoch.Load())
	str(md.Topo.Name)
	i(md.Topo.Sockets)
	i(md.Topo.CoresPerSocket)
	i(md.Topo.ThreadsPerCore)
	for _, v := range []float64{md.CorePeakInstr, md.SMTFactor, md.L1BW, md.L2BW,
		md.L3LinkBW, md.L3AggBW, md.DRAMBW, md.InterconnectBW} {
		f(v)
	}
	i(opt.MaxIterations)
	i(opt.DampenAfter)
	f(opt.Tolerance)
	for _, v := range []bool{opt.AllowDegraded, opt.SinglePass, opt.DisableBurstiness,
		opt.DisableComm, opt.DisableLoadBalance} {
		flag(v)
	}
	i(len(placed))
	for _, pw := range placed {
		w := pw.Workload
		if w == nil {
			b = append(b, 0xff)
			continue
		}
		str(w.Name)
		for _, v := range []float64{w.T1, w.Demand.Instr, w.Demand.L1, w.Demand.L2,
			w.Demand.L3, w.Demand.DRAM, w.Demand.Interconnect, w.ParallelFrac,
			w.InterSocketOverhead, w.LoadBalance, w.Burstiness} {
			f(v)
		}
		i(len(pw.Placement))
		for _, ctx := range pw.Placement {
			i(ctx.Socket)
			i(ctx.Core)
			i(ctx.Slot)
		}
	}
	key := fnv.New64a()
	key.Write(b)
	verify := uint64(verifyOffset64)
	for _, x := range b {
		verify = (verify ^ uint64(x)) * verifyPrime64
	}
	return key.Sum64(), verify
}

// TestCoKeyPrefixExtendsToKey is the prefix-key property: for every mix and
// every slot position i, KeyPrefix over jobs[:i] extended with jobs[i:]
// equals CoCache.Key(jobs), which equals the byte-stream reference, on the
// X5-2 and the X3-2, with nil-workload markers mixed in and after an epoch
// bump.
func TestCoKeyPrefixExtendsToKey(t *testing.T) {
	for _, topo := range []topology.Machine{topology.X52(), topology.X32()} {
		md := quickMachine()
		md.Topo = topo
		c := NewCoCache(0)
		opt := Options{MaxIterations: 40, Tolerance: 1e-9}
		prop := func(raw [4][9]uint8, nilMask uint8, bump bool) bool {
			if bump {
				c.Invalidate()
			}
			jobs := make([]PlacedWorkload, 1+int(raw[0][8])%len(raw))
			for j := range jobs {
				r := raw[j]
				if nilMask&(1<<j) != 0 {
					continue // nil workload: hashed as the 0xff marker
				}
				jobs[j] = PlacedWorkload{
					Workload:  quickWorkload(r[0], r[1], r[2], r[3], r[4], r[5], r[6]),
					Placement: quickPlacement(topo, uint16(r[7])<<8|uint16(r[8]), r[6]),
				}
			}
			wantKey, wantVerify := referenceCoKey(c, md, jobs, opt)
			if k, v := c.Key(md, jobs, opt); k != wantKey || v != wantVerify {
				t.Logf("%s: Key differs from the byte-stream reference", topo.Name)
				return false
			}
			for i := 0; i <= len(jobs); i++ {
				k, v := c.KeyPrefix(md, opt, len(jobs), jobs[:i]).Extend(jobs[i:]).Sum()
				if k != wantKey || v != wantVerify {
					t.Logf("%s: prefix over %d of %d jobs differs", topo.Name, i, len(jobs))
					return false
				}
				// One job at a time, as Rebalance walks the slots.
				p := c.KeyPrefix(md, opt, len(jobs), nil)
				for j := 0; j < i; j++ {
					p = p.Extend(jobs[j : j+1])
				}
				if k, v := p.Extend(jobs[i:]).Sum(); k != wantKey || v != wantVerify {
					t.Logf("%s: job-by-job prefix over %d of %d jobs differs", topo.Name, i, len(jobs))
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoKeyPrefixSeparatesSlots checks the prefix is not order-blind: moving
// a placement between slots, or changing the declared job count, changes
// the key.
func TestCoKeyPrefixSeparatesSlots(t *testing.T) {
	md := quickMachine()
	c := NewCoCache(0)
	a := PlacedWorkload{Workload: quickWorkload(1, 2, 3, 4, 5, 6, 7), Placement: quickPlacement(md.Topo, 1, 3)}
	b := PlacedWorkload{Workload: quickWorkload(7, 6, 5, 4, 3, 2, 1), Placement: quickPlacement(md.Topo, 2, 5)}
	ab, _ := c.Key(md, []PlacedWorkload{a, b}, Options{})
	ba, _ := c.Key(md, []PlacedWorkload{b, a}, Options{})
	if ab == ba {
		t.Fatal("permuted mix hashed to the same key")
	}
	short, _ := c.KeyPrefix(md, Options{}, 3, []PlacedWorkload{a}).Extend([]PlacedWorkload{b}).Sum()
	if short == ab {
		t.Fatal("declared job count is not part of the key")
	}
}
