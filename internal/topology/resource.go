package topology

import "fmt"

// ResourceKind enumerates the classes of contended hardware resource that the
// model tracks. Each kind maps to a family of concrete resources identified
// by a ResourceID: per-core resources carry a global core index, per-socket
// resources a socket index, and interconnect links a socket pair.
type ResourceKind int

const (
	// ResInstr is the instruction-issue capacity of one core.
	ResInstr ResourceKind = iota
	// ResL1 is the bandwidth of one core's link to its private L1 cache.
	ResL1
	// ResL2 is the bandwidth of one core's link to its private L2 cache.
	ResL2
	// ResL3Link is the bandwidth of one core's link into the socket-shared
	// L3 cache. The paper's machine model keeps both this per-core limit and
	// the aggregate limit ResL3Agg (§3.1: "360 per core, and 5000 in
	// aggregate").
	ResL3Link
	// ResL3Agg is the cumulative bandwidth the socket's L3 cache sustains
	// across all cores.
	ResL3Agg
	// ResDRAM is the bandwidth of one socket's links to its local memory.
	ResDRAM
	// ResInterconnect is the bandwidth of one socket-pair link of the fully
	// connected interconnect.
	ResInterconnect

	numResourceKinds
)

// NumResourceKinds is the count of distinct resource kinds.
const NumResourceKinds = int(numResourceKinds)

// String names the resource kind.
func (k ResourceKind) String() string {
	switch k {
	case ResInstr:
		return "instr"
	case ResL1:
		return "l1"
	case ResL2:
		return "l2"
	case ResL3Link:
		return "l3-link"
	case ResL3Agg:
		return "l3-agg"
	case ResDRAM:
		return "dram"
	case ResInterconnect:
		return "interconnect"
	default:
		return fmt.Sprintf("ResourceKind(%d)", int(k))
	}
}

// PerCore reports whether resources of this kind are instantiated once per
// physical core.
func (k ResourceKind) PerCore() bool {
	switch k {
	case ResInstr, ResL1, ResL2, ResL3Link:
		return true
	}
	return false
}

// PerSocket reports whether resources of this kind are instantiated once per
// socket.
func (k ResourceKind) PerSocket() bool {
	switch k {
	case ResL3Agg, ResDRAM:
		return true
	}
	return false
}

// ResourceID identifies one concrete contended resource on a machine.
//
// The meaning of the locator fields depends on Kind:
//   - per-core kinds use Index = machine-wide core index;
//   - per-socket kinds use Index = socket index;
//   - ResInterconnect uses Pair.
type ResourceID struct {
	Kind  ResourceKind
	Index int
	Pair  SocketPair
}

// String renders the resource identifier.
func (r ResourceID) String() string {
	if r.Kind == ResInterconnect {
		return fmt.Sprintf("%s[%s]", r.Kind, r.Pair)
	}
	return fmt.Sprintf("%s[%d]", r.Kind, r.Index)
}

// Less orders resource identifiers by (Kind, Index, Pair), giving map
// iterations over per-resource tables a deterministic order — the predictor
// core forbids raw map ranges (see internal/analysis/detflow) because float
// accumulation is order-sensitive and golden tests diff outputs exactly.
func (r ResourceID) Less(o ResourceID) bool {
	if r.Kind != o.Kind {
		return r.Kind < o.Kind
	}
	if r.Index != o.Index {
		return r.Index < o.Index
	}
	if r.Pair.Lo != o.Pair.Lo {
		return r.Pair.Lo < o.Pair.Lo
	}
	return r.Pair.Hi < o.Pair.Hi
}

// CoreResource builds the per-core resource of kind k for the core hosting c.
func (m Machine) CoreResource(k ResourceKind, c Context) ResourceID {
	if !k.PerCore() {
		panic(fmt.Sprintf("topology: %v is not a per-core resource", k))
	}
	return ResourceID{Kind: k, Index: m.GlobalCore(c)}
}

// SocketResource builds the per-socket resource of kind k for socket s.
func SocketResource(k ResourceKind, s int) ResourceID {
	if !k.PerSocket() {
		panic(fmt.Sprintf("topology: %v is not a per-socket resource", k))
	}
	return ResourceID{Kind: k, Index: s}
}

// InterconnectResource builds the interconnect link resource between sockets
// a and b.
func InterconnectResource(a, b int) ResourceID {
	return ResourceID{Kind: ResInterconnect, Pair: MakeSocketPair(a, b)}
}

// Resources enumerates every concrete resource on the machine.
func (m Machine) Resources() []ResourceID {
	var out []ResourceID
	for core := 0; core < m.TotalCores(); core++ {
		out = append(out,
			ResourceID{Kind: ResInstr, Index: core},
			ResourceID{Kind: ResL1, Index: core},
			ResourceID{Kind: ResL2, Index: core},
			ResourceID{Kind: ResL3Link, Index: core},
		)
	}
	for s := 0; s < m.Sockets; s++ {
		out = append(out,
			ResourceID{Kind: ResL3Agg, Index: s},
			ResourceID{Kind: ResDRAM, Index: s},
		)
	}
	for _, p := range m.SocketPairs() {
		out = append(out, ResourceID{Kind: ResInterconnect, Pair: p})
	}
	return out
}
