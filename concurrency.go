package sopr

import (
	"fmt"
	"io"
)

// TraceTo writes a human-readable line per rule-processing event to w
// (the same format the soprsh `.trace on` command uses). Pass nil to stop
// tracing. It is a convenience over OnTrace that takes the write mutex:
// trace events are emitted only by a writer holding that mutex, so writes
// to w are serialized, no lock-free reader ever runs the handler, and
// once TraceTo(nil) returns no in-flight transaction still writes to the
// old w.
func (db *DB) TraceTo(w io.Writer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if w == nil {
		db.OnTrace(nil)
		return
	}
	db.OnTrace(func(ev TraceEvent) {
		switch ev.Kind {
		case TraceExternalTransition:
			fmt.Fprintf(w, "-- external transition %s\n", ev.Effect)
		case TraceRuleConsidered:
			fmt.Fprintf(w, "-- consider %s (condition=%v) %s\n", ev.Rule, ev.CondHeld, ev.Effect)
		case TraceRuleFired:
			fmt.Fprintf(w, "-- fire %s %s\n", ev.Rule, ev.Effect)
		case TraceRollback:
			fmt.Fprintf(w, "-- rollback by %s\n", ev.Rule)
		case TraceCommit:
			fmt.Fprintf(w, "-- commit\n")
		}
	})
}
