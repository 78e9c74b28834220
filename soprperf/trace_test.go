package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// op 1: a root with overlapping children, one of which overruns
		// the root, and a grandchild that must not count against the root.
		{Op: 1, ID: 0, Parent: -1, Name: "write", Start: 0, End: 100},
		{Op: 1, ID: 1, Parent: 0, Name: "a", Start: 10, End: 20},
		{Op: 1, ID: 2, Parent: 0, Name: "a", Start: 15, End: 30},
		{Op: 1, ID: 3, Parent: 0, Name: "b", Start: 50, End: 60},
		{Op: 1, ID: 4, Parent: 0, Name: "b", Start: 90, End: 120},
		{Op: 1, ID: 5, Parent: 3, Name: "c", Start: 52, End: 58},
		// op 2 reuses span IDs; its children belong to its own root.
		{Op: 2, ID: 0, Parent: -1, Name: "write", Start: 200, End: 260},
		{Op: 2, ID: 1, Parent: 0, Name: "a", Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// op 1 root: 100 - (10..30 + 50..60 + 90..100) = 60; op 2 root: 0.
		"write": 60,
		// a: 10 + 15 in op 1, 60 in op 2 (no children).
		"a": 85,
		// b: (10 - 6) + 30 (children outside their parent's interval are clipped
		// only when computing the parent's coverage, never the child's own span).
		"b": 34,
		"c": 6,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestCoveredNoChildren(t *testing.T) {
	if c := covered(span{Start: 5, End: 9}, nil); c != 0 {
		t.Errorf("covered = %d", c)
	}
	// Children entirely outside the parent cover nothing.
	if c := covered(span{Start: 5, End: 9}, []span{{Start: 0, End: 5}, {Start: 9, End: 12}}); c != 0 {
		t.Errorf("covered = %d", c)
	}
}
