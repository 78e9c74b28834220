package sopr

import (
	"fmt"
	"strings"
)

// RuleAnalysis is the static analysis report of Section 6 of the paper:
// potential infinite loops (self-triggering rules and multi-rule cycles in
// the triggering graph) and potential ordering conflicts (unordered rule
// pairs whose relative execution order may affect the final state).
type RuleAnalysis struct {
	// Edges is the triggering graph: Edges[i] = [from, to] means from's
	// action may trigger to.
	Edges [][2]string
	// SelfLoops lists rules whose action may re-trigger themselves.
	SelfLoops []string
	// Cycles lists groups of two or more mutually-triggering rules.
	Cycles [][]string
	// Conflicts lists unordered pairs of possibly co-triggered rules with
	// interfering actions.
	Conflicts [][2]string
	// ExternalActions lists rules calling external procedures, whose
	// effects the static analysis cannot see.
	ExternalActions []string
}

// Warnings renders the report as human-readable warning lines (empty when
// the rule set is clean).
func (a *RuleAnalysis) Warnings() []string {
	var out []string
	for _, r := range a.SelfLoops {
		out = append(out, fmt.Sprintf("rule %q may trigger itself (potential infinite loop)", r))
	}
	for _, c := range a.Cycles {
		out = append(out, fmt.Sprintf("rules %s form a triggering cycle (potential infinite loop)", strings.Join(c, ", ")))
	}
	for _, p := range a.Conflicts {
		out = append(out, fmt.Sprintf("rules %q and %q may be triggered together with no declared priority; final state may depend on selection order", p[0], p[1]))
	}
	for _, r := range a.ExternalActions {
		out = append(out, fmt.Sprintf("rule %q calls an external procedure; its effects are invisible to static analysis", r))
	}
	return out
}

// AnalyzeRules runs static rule analysis over the currently defined rules.
// It reads the live rule set, so it takes the write mutex.
func (db *DB) AnalyzeRules() *RuleAnalysis {
	db.mu.Lock()
	rep := db.eng.Analyze()
	db.mu.Unlock()
	out := &RuleAnalysis{
		SelfLoops:       rep.SelfLoops,
		Cycles:          rep.Cycles,
		Conflicts:       rep.Conflicts,
		ExternalActions: rep.ExternalActions,
	}
	for _, e := range rep.Edges {
		out.Edges = append(out.Edges, [2]string{e.From, e.To})
	}
	return out
}
