package placement

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"pandia/internal/topology"
)

func TestEnumerateCounts(t *testing.T) {
	// Per-socket states for c cores with SMT: (ones, twos) with
	// ones+twos <= c, i.e. C(c+2, 2). Canonical shapes are multisets of
	// two states minus the empty shape: for the X3-2 (c=8): states = 45,
	// shapes = 45*46/2 - 1 = 1034. For the X5-2 (c=18): states = 190,
	// shapes = 190*191/2 - 1 = 18144.
	if got := len(Enumerate(topology.X32())); got != 1034 {
		t.Errorf("X3-2 canonical shapes = %d, want 1034", got)
	}
	if got := len(Enumerate(topology.X52())); got != 18144 {
		t.Errorf("X5-2 canonical shapes = %d, want 18144", got)
	}
	// Toy: 2 cores, states = C(4,2) = 6, shapes = 6*7/2 - 1 = 20.
	if got := len(Enumerate(topology.Toy())); got != 20 {
		t.Errorf("toy canonical shapes = %d, want 20", got)
	}
}

func TestEnumerateUniqueAndValid(t *testing.T) {
	m := topology.X32()
	shapes := Enumerate(m)
	seen := make(map[string]bool)
	for _, s := range shapes {
		k := s.Key()
		if seen[k] {
			t.Fatalf("duplicate shape %v", s)
		}
		seen[k] = true
		if err := s.Validate(m); err != nil {
			t.Fatalf("enumerated invalid shape %v: %v", s, err)
		}
	}
}

func TestEnumerateSorted(t *testing.T) {
	shapes := Enumerate(topology.X32())
	for i := 1; i < len(shapes); i++ {
		if shapes[i].Threads() < shapes[i-1].Threads() {
			t.Fatalf("shapes not sorted by thread count at %d", i)
		}
	}
	if shapes[0].Threads() != 1 {
		t.Errorf("first shape has %d threads, want 1", shapes[0].Threads())
	}
	last := shapes[len(shapes)-1]
	if last.Threads() != topology.X32().TotalContexts() {
		t.Errorf("last shape has %d threads, want %d", last.Threads(), topology.X32().TotalContexts())
	}
}

func TestExpandRoundTrip(t *testing.T) {
	m := topology.X32()
	for _, s := range Enumerate(m) {
		p := s.Expand(m)
		if err := p.Validate(m); err != nil {
			t.Fatalf("shape %v expanded invalid: %v", s, err)
		}
		if p.Threads() != s.Threads() {
			t.Fatalf("shape %v expanded to %d threads", s, p.Threads())
		}
		back := ShapeOf(m, p)
		if back.Key() != s.Key() {
			t.Fatalf("round trip %v -> %v", s, back)
		}
	}
}

func TestPlacementValidate(t *testing.T) {
	m := topology.X32()
	if err := (Placement{}).Validate(m); err == nil {
		t.Error("empty placement accepted")
	}
	dup := Placement{{Socket: 0, Core: 0, Slot: 0}, {Socket: 0, Core: 0, Slot: 0}}
	if err := dup.Validate(m); err == nil {
		t.Error("duplicate context accepted")
	}
	bad := Placement{{Socket: 7, Core: 0, Slot: 0}}
	if err := bad.Validate(m); err == nil {
		t.Error("invalid context accepted")
	}
}

func TestPlacementAccessors(t *testing.T) {
	m := topology.X32()
	p := Placement{
		{Socket: 0, Core: 0, Slot: 0},
		{Socket: 0, Core: 0, Slot: 1},
		{Socket: 1, Core: 2, Slot: 0},
	}
	if p.Threads() != 3 || p.SocketsUsed() != 2 || p.CoresUsed(m) != 2 {
		t.Errorf("accessors: threads=%d sockets=%d cores=%d", p.Threads(), p.SocketsUsed(), p.CoresUsed(m))
	}
	s := ShapeOf(m, p)
	if s.Threads() != 3 || s.SocketsUsed() != 2 {
		t.Errorf("ShapeOf = %v", s)
	}
	// Busiest socket first: the doubled core sorts ahead.
	if s.PerSocket[0].Twos != 1 || s.PerSocket[1].Ones != 1 {
		t.Errorf("canonical order wrong: %v", s)
	}
}

func TestShapeValidateRejects(t *testing.T) {
	m := topology.X32()
	cases := map[string]Shape{
		"too many sockets": {PerSocket: []SocketCount{{1, 0}, {1, 0}, {1, 0}}},
		"empty":            {PerSocket: []SocketCount{{0, 0}}},
		"negative":         {PerSocket: []SocketCount{{-1, 2}}},
		"overflow cores":   {PerSocket: []SocketCount{{8, 1}}},
	}
	for name, s := range cases {
		if err := s.Validate(m); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	uni := topology.Machine{Name: "uni", Sockets: 1, CoresPerSocket: 4, ThreadsPerCore: 1}
	smt := Shape{PerSocket: []SocketCount{{0, 1}}}
	if err := smt.Validate(uni); err == nil {
		t.Error("SMT shape accepted on non-SMT machine")
	}
}

func TestSampleStratified(t *testing.T) {
	m := topology.X52()
	shapes := Enumerate(m)
	sampled := Sample(shapes, 3000, 42)
	if len(sampled) > 3300 || len(sampled) < 2500 {
		t.Fatalf("sample size = %d, want about 3000", len(sampled))
	}
	// Every thread count must survive sampling.
	want := make(map[int]bool)
	for _, s := range shapes {
		want[s.Threads()] = true
	}
	got := make(map[int]bool)
	for _, s := range sampled {
		got[s.Threads()] = true
	}
	for n := range want {
		if !got[n] {
			t.Errorf("thread count %d lost in sampling", n)
		}
	}
	// Deterministic.
	again := Sample(shapes, 3000, 42)
	if len(again) != len(sampled) {
		t.Fatal("sampling not deterministic")
	}
	for i := range again {
		if again[i].Key() != sampled[i].Key() {
			t.Fatal("sampling not deterministic")
		}
	}
	// No-op when the set is small enough.
	if got := Sample(shapes[:10], 100, 1); len(got) != 10 {
		t.Errorf("small sample = %d, want 10", len(got))
	}
}

func TestFilters(t *testing.T) {
	m := topology.X24()
	shapes, _ := EnumerateSampled(m, 4000, 7)
	two := FilterMaxSockets(shapes, 2)
	for _, s := range two {
		if s.SocketsUsed() > 2 {
			t.Fatalf("shape %v in 2-socket class uses %d sockets", s, s.SocketsUsed())
		}
	}
	twenty := FilterMaxCores(shapes, 20)
	for _, s := range twenty {
		if s.Cores() > 20 {
			t.Fatalf("shape %v in 20-core class uses %d cores", s, s.Cores())
		}
	}
	if len(two) == 0 || len(twenty) == 0 || len(two) >= len(shapes) {
		t.Errorf("filter sizes implausible: all=%d two=%d twenty=%d", len(shapes), len(two), len(twenty))
	}
}

func TestSpecialPlacements(t *testing.T) {
	m := topology.X32()

	opc, err := OnePerCore(m, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if opc.CoresUsed(m) != 6 || opc.SocketsUsed() != 1 {
		t.Errorf("OnePerCore shape wrong: %v", opc)
	}

	split, err := SplitAcrossSockets(m, 6)
	if err != nil {
		t.Fatal(err)
	}
	if split.SocketsUsed() != 2 || split.CoresUsed(m) != 6 {
		t.Errorf("Split shape wrong: %v", split)
	}

	pairs, err := PackedPairs(m, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if pairs.CoresUsed(m) != 3 || pairs.SocketsUsed() != 1 {
		t.Errorf("PackedPairs shape wrong: %v", pairs)
	}

	if _, err := OnePerCore(m, 0, 9); err == nil {
		t.Error("OnePerCore overflow accepted")
	}
	if _, err := SplitAcrossSockets(m, 5); err == nil {
		t.Error("odd split accepted")
	}
	if _, err := PackedPairs(m, 0, 18); err == nil {
		t.Error("PackedPairs overflow accepted")
	}
}

func TestPackedSpread(t *testing.T) {
	m := topology.X32()
	packed, err := Packed(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if packed.CoresUsed(m) != 2 || packed.SocketsUsed() != 1 {
		t.Errorf("Packed(4) = %v", packed)
	}
	spread, err := Spread(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if spread.CoresUsed(m) != 4 || spread.SocketsUsed() != 2 {
		t.Errorf("Spread(4) = %v", spread)
	}
	full, err := Spread(m, m.TotalContexts())
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Validate(m); err != nil {
		t.Errorf("full spread invalid: %v", err)
	}
	if _, err := Packed(m, m.TotalContexts()+1); err == nil {
		t.Error("oversize packed accepted")
	}
}

func TestSweepShapes(t *testing.T) {
	m := topology.X32()
	sweep := SweepShapes(m)
	// Packed and spread coincide for n=1 and the full machine, and for a
	// couple of mid sizes; the sweep must stay well below the full space.
	if len(sweep) < m.TotalContexts() || len(sweep) >= 2*m.TotalContexts() {
		t.Errorf("sweep size = %d, want in [%d, %d)", len(sweep), m.TotalContexts(), 2*m.TotalContexts())
	}
	seen := make(map[string]bool)
	for _, s := range sweep {
		if seen[s.Key()] {
			t.Fatalf("duplicate sweep shape %v", s)
		}
		seen[s.Key()] = true
	}
}

func TestShapeString(t *testing.T) {
	s := Shape{PerSocket: []SocketCount{{Ones: 3, Twos: 2}, {Ones: 4}}}
	if got := s.String(); got != "s0:2x2+3x1 s1:4x1" {
		t.Errorf("String() = %q", got)
	}
	if got := (Shape{}).String(); got != "empty" {
		t.Errorf("empty String() = %q", got)
	}
}

// Property: Expand of a valid random shape always round-trips through
// ShapeOf.
func TestQuickExpandRoundTrip(t *testing.T) {
	m := topology.X42()
	f := func(o1, t1, o2, t2 uint8) bool {
		s := Shape{PerSocket: []SocketCount{
			{Ones: int(o1 % 5), Twos: int(t1 % 5)},
			{Ones: int(o2 % 5), Twos: int(t2 % 5)},
		}}.Canonical()
		if s.Threads() == 0 || s.Validate(m) != nil {
			return true
		}
		return ShapeOf(m, s.Expand(m)).Key() == s.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseShape(t *testing.T) {
	cases := map[string]string{
		"4x1":         "4x1",
		"2x2+3x1":     "2x2+3x1",
		"2x2+3x1/4x1": "2x2+3x1/4x1",
		" 1x2 / 1x2 ": "1x2/1x2",
		"4x1/2x2":     "2x2/4x1", // canonicalised busiest-first by threads? equal threads: twos first
	}
	for in, want := range cases {
		s, err := ParseShape(in)
		if err != nil {
			t.Errorf("ParseShape(%q): %v", in, err)
			continue
		}
		if got := FormatShape(s); got != want {
			t.Errorf("ParseShape(%q) -> %q, want %q", in, got, want)
		}
	}
	for _, bad := range []string{"", "x1", "3y1", "2x3", "-1x1", "ax1"} {
		if _, err := ParseShape(bad); err == nil {
			t.Errorf("ParseShape(%q) accepted", bad)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	m := topology.X32()
	for _, s := range Enumerate(m) {
		back, err := ParseShape(FormatShape(s))
		if err != nil {
			t.Fatalf("round trip of %v: %v", s, err)
		}
		if back.Key() != s.Key() {
			t.Fatalf("round trip %v -> %v", s, back)
		}
	}
}

// fmtKey is Key as first written, kept as the oracle for the byte-for-byte
// identity SortShapes and Sample depend on.
func fmtKey(s Shape) string {
	c := s.Canonical()
	var b strings.Builder
	for _, sc := range c.PerSocket {
		fmt.Fprintf(&b, "%d.%d;", sc.Ones, sc.Twos)
	}
	return b.String()
}

func TestKeyMatchesFmtOracle(t *testing.T) {
	for _, m := range []topology.Machine{topology.X32(), topology.X52()} {
		for _, s := range Enumerate(m) {
			if got, want := s.Key(), fmtKey(s); got != want {
				t.Fatalf("%s: Key(%v) = %q, want %q", m.Name, s, got, want)
			}
		}
	}
	// Non-canonical shapes: empty and negative sockets, any order.
	f := func(raw []int8) bool {
		var s Shape
		for i := 0; i+1 < len(raw) && len(s.PerSocket) < 6; i += 2 {
			s.PerSocket = append(s.PerSocket, SocketCount{Ones: int(raw[i] % 20), Twos: int(raw[i+1] % 20)})
		}
		return s.Key() == fmtKey(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestEnumerateSampledShared checks the memo's sharing contract: concurrent
// first calls agree on one value, and an append to one placement cannot
// overwrite its neighbour in the arena.
func TestEnumerateSampledShared(t *testing.T) {
	m := topology.X42()
	const workers = 4
	var wg sync.WaitGroup
	shapes := make([][]Shape, workers)
	places := make([][]Placement, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shapes[i], places[i] = EnumerateSampled(m, 300, 11)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if &shapes[i][0] != &shapes[0][0] || &places[i][0] != &places[0][0] {
			t.Fatalf("worker %d got a different memo value", i)
		}
	}
	ps := places[0]
	next := append(Placement(nil), ps[1]...)
	_ = append(ps[0], topology.Context{Socket: 9})
	for j := range next {
		if ps[1][j] != next[j] {
			t.Fatalf("append to places[0] overwrote places[1][%d]", j)
		}
	}
}

// BenchmarkEnumerateCold times the uncached enumeration of the X5-2;
// Enumerate itself only copies the memo after the first call.
func BenchmarkEnumerateCold(b *testing.B) {
	m := topology.X52()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := enumerate(m); len(got) != 18144 {
			b.Fatalf("enumerated %d shapes", len(got))
		}
	}
}
