package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
)

// Journal metric handles (catalogued in DESIGN.md §9). The names carry the
// scheduler prefix because the scheduling plane is the journal's producer;
// the handles live here so the journal stays self-contained.
var (
	metJournalRecords = Default().Counter("scheduler.journal.records")
	metJournalDropped = Default().Counter("scheduler.journal.dropped")
	metIncidentDumps  = Default().Counter("obs.incident.dumps")
)

// MaxAlternatives is how many not-chosen candidate placements a
// DecisionRecord keeps inline. The fixed array keeps the journal ring a
// flat preallocated slab: recording a decision copies value fields and
// string headers, never grows a slice.
const MaxAlternatives = 4

// Alternative is one candidate placement a decision considered and did not
// commit: where it would have put the threads, which generator proposed it,
// how it scored, and — when it was rejected by policy rather than merely
// outscored — why.
type Alternative struct {
	// Placement renders the candidate's hardware contexts.
	Placement string `json:"placement"`
	// Strategy names the candidate generator ("pack", "spread", ...).
	Strategy string `json:"strategy,omitempty"`
	// Score is the producer's ranking metric (aggregate predicted
	// throughput for admissions, relative gain for rebalance moves).
	Score float64 `json:"score,omitempty"`
	// Slowdown is the candidate's predicted worst contention slowdown.
	//pandia:unit ratio
	Slowdown float64 `json:"slowdown,omitempty"`
	// Reject explains a policy rejection ("worst slowdown 3.10 > SLO
	// 2.50"); empty for candidates that were viable but outscored.
	Reject string `json:"reject,omitempty"`
}

// DecisionRecord is one scheduler operation's journal entry: what was
// decided, why, what else was on the table, and what it cost to decide.
// Records form a cause chain through Parent (an eviction's parent is the
// Fail or Drain that forced it) and share their ID with the trace spans and
// solver events the operation emitted (Event.Span), so one decision can be
// followed from the journal into the Perfetto timeline.
type DecisionRecord struct {
	// ID is the decision id from Journal.NextID — unique within a journal,
	// shared with the operation's trace spans.
	ID int64 `json:"id"`
	// Parent is the causing decision's ID (0 for root operations).
	Parent int64 `json:"parent,omitempty"`
	// Seq is the journal's emission ticket, assigned by Record; it totally
	// orders records even when clock timestamps tie.
	Seq int64 `json:"seq"`
	// Time is stamped from the journal's clock at Record time.
	//pandia:unit seconds
	Time float64 `json:"t"`
	// Op names the operation: "submit", "predict", "rebalance",
	// "apply-move", "drain", "cordon", "uncordon", "fail", "evict",
	// "migrate".
	Op string `json:"op"`
	// Job is the acted-on job's ID, when the operation has one.
	Job string `json:"job,omitempty"`
	// Outcome summarises what happened: "admitted", "admitted-degraded",
	// "rejected", "advised", "applied", "conflict", "evicted", "migrated",
	// "ok".
	Outcome string `json:"outcome"`
	// Reason is the typed rejection reason (AdmissionKind strings like
	// "slo-exceeded") or the operation's summary.
	Reason string `json:"reason,omitempty"`
	// Cause is free-text causal context ("context failed", "drain deadline
	// exceeded") complementing the Parent link.
	Cause string `json:"cause,omitempty"`
	// Placement and Strategy describe the committed choice, when one was.
	Placement string `json:"placement,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	// Score is the committed choice's ranking metric.
	Score float64 `json:"score,omitempty"`
	// Candidates is the candidate-set size the decision evaluated.
	Candidates int `json:"candidates,omitempty"`
	// Pruned counts candidates skipped under the dominance bound;
	// CacheHits/CacheMisses the decision's prediction-cache traffic.
	Pruned      int64 `json:"pruned,omitempty"`
	CacheHits   int64 `json:"cacheHits,omitempty"`
	CacheMisses int64 `json:"cacheMisses,omitempty"`
	// AltCount is how many of Alternatives are set (top-scoring first).
	AltCount     int                          `json:"-"`
	Alternatives [MaxAlternatives]Alternative `json:"-"`
}

// MarshalJSON renders the record with its occupied alternatives cut to a
// slice. The JSONL dump, /debug/decisions, and embedded scenario records
// all marshal through this, so every surface shows the same bytes per
// record.
func (r DecisionRecord) MarshalJSON() ([]byte, error) {
	type plain DecisionRecord // drop methods to avoid recursion
	return json.Marshal(struct {
		plain
		Alternatives []Alternative `json:"alternatives,omitempty"`
	}{plain(r), r.Alts()})
}

// UnmarshalJSON restores a record from its export encoding.
func (r *DecisionRecord) UnmarshalJSON(data []byte) error {
	type plain DecisionRecord
	var aux struct {
		plain
		Alternatives []Alternative `json:"alternatives,omitempty"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	*r = DecisionRecord(aux.plain)
	r.AltCount = 0
	for i, a := range aux.Alternatives {
		if i >= MaxAlternatives {
			break
		}
		r.Alternatives[i] = a
		r.AltCount++
	}
	return nil
}

// Alts returns the record's occupied alternatives.
func (r *DecisionRecord) Alts() []Alternative {
	n := r.AltCount
	if n < 0 {
		n = 0
	}
	if n > MaxAlternatives {
		n = MaxAlternatives
	}
	return r.Alternatives[:n]
}

// AddAlternative appends one alternative, keeping the set sorted by
// descending Score and bounded at MaxAlternatives (the lowest-scoring entry
// falls off a full set).
func (r *DecisionRecord) AddAlternative(a Alternative) {
	i := r.AltCount
	if i >= MaxAlternatives {
		if a.Score <= r.Alternatives[MaxAlternatives-1].Score {
			return
		}
		i = MaxAlternatives - 1
	} else {
		r.AltCount++
	}
	for i > 0 && a.Score > r.Alternatives[i-1].Score {
		r.Alternatives[i] = r.Alternatives[i-1]
		i--
	}
	r.Alternatives[i] = a
}

// IncidentDump is one auto-snapshot of the journal window surrounding an
// incident: the trigger, the decision that tripped it, the ring contents at
// dump time, and the registry counters moved since the previous incident
// (or journal creation). Counter deltas only — gauges are absolute readings
// of warm-process state and would break replay byte-identity.
type IncidentDump struct {
	// ID numbers incidents within a journal, from 1.
	ID int64 `json:"id"`
	//pandia:unit seconds
	Time float64 `json:"t"`
	// Trigger classifies the incident: "slo-rejection", "eviction",
	// "degraded-admission".
	Trigger string `json:"trigger"`
	// Decision is the triggering DecisionRecord's ID.
	Decision int64 `json:"decision"`
	// Job is the affected job, when the trigger has one.
	Job string `json:"job,omitempty"`
	// Detail carries the trigger's specifics (the rejecting policy, the
	// eviction reason).
	Detail string `json:"detail,omitempty"`
	// Records is the journal window at dump time, oldest first.
	Records []DecisionRecord `json:"records"`
	// MetricDeltas maps counter names to their movement since the previous
	// incident dump (or the journal's creation); zero deltas are dropped.
	MetricDeltas map[string]int64 `json:"metricDeltas,omitempty"`
}

// maxIncidentDumps bounds the retained incident list; later incidents still
// count in obs.incident.dumps but keep no window.
const maxIncidentDumps = 16

// journalSlot is one ring entry. The per-slot mutex (rather than one ring
// lock) keeps concurrent writers from serialising on a single lock: a
// writer claims a slot with one atomic ticket fetch and only contends with
// a writer that lapped the ring onto the same slot or a concurrent reader.
type journalSlot struct {
	mu sync.Mutex
	//pandia:guardedby(mu)
	seq int64 // 1-based ticket of the stored record; 0 = empty
	//pandia:guardedby(mu)
	rec DecisionRecord
}

// Journal is the flight recorder's decision log: a bounded, preallocated
// ring of DecisionRecords with dump-on-demand (WriteJSONL, Records) and
// dump-on-incident (Incident). Writers are near-lock-free — an atomic
// ticket claims a slot, a per-slot mutex orders the copy — and a disabled
// or nil journal costs exactly one branch per instrumentation site, the
// same contract the Tracer interface keeps for the solver hot path.
type Journal struct {
	enabled atomic.Bool
	ticket  atomic.Int64 // ring slots claimed so far
	ids     atomic.Int64 // decision ids handed out by NextID

	reg   *Registry
	clock Clock
	slots []journalSlot

	mu sync.Mutex
	//pandia:guardedby(mu)
	incidents []IncidentDump
	// baseline is the registry snapshot incident deltas diff against:
	// taken at construction, advanced at each dump.
	//pandia:guardedby(mu)
	baseline *Snapshot
	//pandia:guardedby(mu)
	incidentCount int64
}

// NewJournal builds a journal holding up to capacity records (minimum 1),
// stamping record times from clock (nil leaves producer times). Incident
// deltas diff the default registry from this moment. The journal starts
// disabled — recording is opt-in via SetEnabled, so wiring one into a
// scheduler costs nothing until someone asks for the flight recorder.
func NewJournal(capacity int, clock Clock) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{
		reg:      Default(),
		clock:    clock,
		slots:    make([]journalSlot, capacity),
		baseline: Default().Snapshot(),
	}
}

// Enabled reports whether Record currently journals. Safe on a nil journal
// (false), so instrumentation sites guard record assembly with one call.
func (j *Journal) Enabled() bool {
	if j == nil {
		return false
	}
	return j.enabled.Load()
}

// SetEnabled flips recording without dropping buffered records. A journal
// starts disabled.
func (j *Journal) SetEnabled(on bool) { j.enabled.Store(on) }

// NextID hands out the next decision id (1, 2, ...). Safe on a nil journal
// (always 0): spans emitted without a journal stay unlinked rather than
// panicking.
func (j *Journal) NextID() int64 {
	if j == nil {
		return 0
	}
	return j.ids.Add(1)
}

// Record journals one decision, stamping Time from the journal's clock and
// Seq from the ring ticket. A nil or disabled journal drops the record at
// the cost of one branch. Overwriting an unread slot counts as a drop.
func (j *Journal) Record(rec DecisionRecord) {
	if !j.Enabled() {
		return
	}
	if j.clock != nil {
		rec.Time = j.clock.Now()
	}
	t := j.ticket.Add(1)
	rec.Seq = t
	s := &j.slots[int((t-1)%int64(len(j.slots)))]
	s.mu.Lock()
	if s.seq != 0 {
		metJournalDropped.Inc()
	}
	s.seq = t
	s.rec = rec
	s.mu.Unlock()
	metJournalRecords.Inc()
}

// Recorded returns how many records were ever journaled.
func (j *Journal) Recorded() int64 {
	if j == nil {
		return 0
	}
	return j.ticket.Load()
}

// Dropped returns how many records the ring has overwritten.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.ticket.Load() - int64(j.buffered())
}

// buffered counts occupied slots, taking each slot lock in turn.
func (j *Journal) buffered() int {
	n := 0
	for i := range j.slots {
		j.slots[i].mu.Lock()
		if j.slots[i].seq != 0 {
			n++
		}
		j.slots[i].mu.Unlock()
	}
	return n
}

// Records returns the buffered decisions oldest-first (by Seq). The slice
// is a copy; concurrent writers may lap the ring while it is taken, in
// which case the copy is a consistent per-record but approximate window —
// exactly the flight-recorder contract.
func (j *Journal) Records() []DecisionRecord {
	if j == nil {
		return nil
	}
	// Slots are claimed round-robin, so the oldest record sits at the ring
	// head (the slot the next ticket claims): reading from there yields
	// emission order. Only a writer lapping the ring during the read can
	// leave the copy out of order, and then sorting by Seq restores it.
	n := len(j.slots)
	head := int(j.ticket.Load() % int64(n))
	out := make([]DecisionRecord, 0, n)
	for k := 0; k < n; k++ {
		s := &j.slots[(head+k)%n]
		s.mu.Lock()
		if s.seq != 0 {
			out = append(out, s.rec)
		}
		s.mu.Unlock()
	}
	if !slices.IsSortedFunc(out, bySeq) {
		slices.SortFunc(out, bySeq)
	}
	return out
}

func bySeq(a, b DecisionRecord) int { return cmp.Compare(a.Seq, b.Seq) }

// Reset discards buffered records and incidents, keeping capacity, clock,
// enabled state, and the id counters, and re-baselines incident deltas.
func (j *Journal) Reset() {
	for i := range j.slots {
		j.slots[i].mu.Lock()
		j.slots[i].seq = 0
		j.slots[i].rec = DecisionRecord{}
		j.slots[i].mu.Unlock()
	}
	j.mu.Lock()
	j.incidents = nil
	j.baseline = j.reg.Snapshot()
	j.mu.Unlock()
}

// Incident auto-snapshots the journal window around an incident: the
// current ring contents plus the registry counter deltas since the last
// dump. Past maxIncidentDumps the incident is counted and the delta
// baseline advanced, but the window is not copied. A nil or disabled
// journal ignores the call.
func (j *Journal) Incident(trigger string, decision int64, job, detail string) {
	if !j.Enabled() {
		return
	}
	var t float64
	if j.clock != nil {
		t = j.clock.Now()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	snap, prev := j.reg.Snapshot(), j.baseline
	j.baseline = snap
	j.incidentCount++
	metIncidentDumps.Inc()
	if len(j.incidents) >= maxIncidentDumps {
		return
	}
	deltas := snap.DeltaFrom(prev)
	records := j.Records()
	j.incidents = append(j.incidents, IncidentDump{
		ID:           j.incidentCount,
		Time:         t,
		Trigger:      trigger,
		Decision:     decision,
		Job:          job,
		Detail:       detail,
		Records:      records,
		MetricDeltas: deltas,
	})
}

// Incidents returns the retained incident dumps in trigger order.
func (j *Journal) Incidents() []IncidentDump {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]IncidentDump(nil), j.incidents...)
}

// WriteJournalJSONL streams records as one JSON object per line — the
// journal's dump-on-demand format. Struct fields marshal in declaration
// order and alternatives are value copies, so the stream is byte-stable for
// a given record sequence (deterministic under a ManualClock).
func WriteJournalJSONL(w io.Writer, recs []DecisionRecord) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL dumps the journal's current window as JSONL.
func (j *Journal) WriteJSONL(w io.Writer) error {
	return WriteJournalJSONL(w, j.Records())
}

// Handler serves the journal for the introspection mux: a JSON object with
// the buffered records (oldest first — the same records WriteJSONL dumps)
// and the retained incident dumps. Mount it at /debug/decisions.
func (j *Journal) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		out := struct {
			Records   []DecisionRecord `json:"records"`
			Incidents []IncidentDump   `json:"incidents,omitempty"`
			Recorded  int64            `json:"recorded"`
			Dropped   int64            `json:"dropped"`
		}{
			Records:   j.Records(),
			Incidents: j.Incidents(),
			Recorded:  j.Recorded(),
			Dropped:   j.Dropped(),
		}
		if out.Records == nil {
			out.Records = []DecisionRecord{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		// The ResponseWriter owns delivery failures; nothing useful to do here.
		_ = enc.Encode(out)
	})
}
