package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/inject"
	"repro/internal/journal"
)

// sinkEvent is one call into the result sink, timed on the tracer's
// clock (or the wall clock when untraced).
type sinkEvent struct {
	Kind       string // "put", "quarantine", "begin", "flush"
	Campaign   string
	Worker     int
	Ordinal    int
	Start, End int64
	// Only what the trace needs is kept of a result: holding whole
	// results (crash dumps, windows) would grow the live heap and pace
	// the garbage collector differently from an untraced trial.
	PC        uint32
	Activated bool
	Outcome   inject.Outcome
}

// watchSink wraps the journal writer the study writes through. It
// records when the first injection result arrives (the end of set-up
// on the fleet) and, when tracing, every call with its timing. It
// implements both core.ResultSink and fleet.Sink.
type watchSink struct {
	jw    *journal.Writer
	clock func() int64
	trace bool

	first atomic.Int64 // wall-clock ns of the first result or quarantine

	mu     sync.Mutex
	events []sinkEvent
}

func newWatchSink(jw *journal.Writer, tr *tracer) *watchSink {
	s := &watchSink{jw: jw, clock: func() int64 { return time.Now().UnixNano() }}
	if tr != nil {
		s.clock, s.trace = tr.now, true
	}
	return s
}

func (s *watchSink) noteFirst() {
	s.first.CompareAndSwap(0, time.Now().UnixNano())
}

func (s *watchSink) record(e sinkEvent) {
	if !s.trace {
		return
	}
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *watchSink) BeginCampaign(c inject.Campaign, total int) error {
	start := s.clock()
	err := s.jw.BeginCampaign(c, total)
	s.record(sinkEvent{Kind: "begin", Campaign: analysis.CampaignKey(c), Start: start, End: s.clock()})
	return err
}

func (s *watchSink) Put(c inject.Campaign, worker, ordinal, total int, res inject.Result) error {
	s.noteFirst()
	start := s.clock()
	err := s.jw.Put(c, worker, ordinal, total, res)
	s.record(sinkEvent{Kind: "put", Campaign: analysis.CampaignKey(c), Worker: worker, Ordinal: ordinal, Start: start, End: s.clock(),
		PC: res.Target.InstAddr, Activated: res.Activated, Outcome: res.Outcome})
	return err
}

func (s *watchSink) Quarantine(c inject.Campaign, worker, ordinal int, hf inject.HarnessFault) error {
	s.noteFirst()
	start := s.clock()
	err := s.jw.Quarantine(c, worker, ordinal, hf)
	s.record(sinkEvent{Kind: "quarantine", Campaign: analysis.CampaignKey(c), Worker: worker, Ordinal: ordinal, Start: start, End: s.clock()})
	return err
}

func (s *watchSink) Flush() error {
	start := s.clock()
	err := s.jw.Flush()
	s.record(sinkEvent{Kind: "flush", Start: start, End: s.clock()})
	return err
}

// recorded returns the calls seen so far, in arrival order.
func (s *watchSink) recorded() []sinkEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sinkEvent(nil), s.events...)
}
