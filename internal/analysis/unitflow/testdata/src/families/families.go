package families

// Fixture for the suffix families: mixing them across +, -, and comparisons
// is flagged even where a bare PerSec leaves the unit undecided; same-family
// arithmetic, dimension-combining * and /, and conversion helpers pass.

type sample struct {
	DRAMBytes   float64
	ElapsedSecs float64
	ClockHz     float64
	RatePerSec  float64
}

func secsOf(bytes, perSec float64) float64 { return bytes / perSec }

func bad(s sample) {
	_ = s.DRAMBytes + s.ElapsedSecs  // want `unit mismatch: s\.DRAMBytes \(bytes\) \+ s\.ElapsedSecs \(seconds\)`
	_ = s.DRAMBytes - s.RatePerSec   // want `unit mismatch`
	_ = s.ClockHz < s.RatePerSec     // want `unit mismatch`
	_ = s.ElapsedSecs == s.DRAMBytes // want `unit mismatch`

	totalBytes := s.DRAMBytes
	totalBytes += s.ElapsedSecs // want `unit mismatch`
	_ = totalBytes

	_ = float64(s.DRAMBytes) + s.ElapsedSecs // want `unit mismatch`
}

func good(s sample) {
	l1Bytes := 4096.0
	_ = s.DRAMBytes + l1Bytes          // same family
	_ = s.DRAMBytes / s.ElapsedSecs    // division combines dimensions
	_ = s.RatePerSec * s.ElapsedSecs   // multiplication combines dimensions
	_ = s.DRAMBytes + 1.0              // bare constants are unitless
	_ = secsOf(s.DRAMBytes, s.RatePerSec) + s.ElapsedSecs // explicit conversion

	// Suffix must start a camel-case word: "emphasis" is not a Hz value.
	emphasis := 1.0
	_ = emphasis + s.ElapsedSecs
}
