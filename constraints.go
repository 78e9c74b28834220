package sopr

import (
	"fmt"

	"sopr/internal/constraints"
)

// DeleteAction selects referential-integrity behavior when referenced
// parent rows are deleted.
type DeleteAction int

// Delete actions for referential integrity.
const (
	// CascadeDelete removes referencing child rows (the paper's
	// Example 3.1 "cascaded delete" method).
	CascadeDelete DeleteAction = iota
	// RestrictDelete rolls back transactions that would orphan child rows.
	RestrictDelete
	// SetNullDelete sets referencing columns to NULL.
	SetNullDelete
)

// Constraint is a declarative integrity constraint compiled into production
// rules, per the facility sketched in Section 6 of the paper and developed
// in [CW90]. Obtain instances from the constructor functions below and
// install them with DB.AddConstraint.
type Constraint struct {
	inner constraints.Constraint
}

// ForeignKey declares child.fk → parent.pk referential integrity with the
// given delete action. Inserting or re-pointing child rows to missing
// parents, and updating referenced parent keys, roll the transaction back.
func ForeignKey(name, child, fk, parent, pk string, onDelete DeleteAction) Constraint {
	return Constraint{inner: constraints.ReferentialIntegrity{
		Name:     name,
		Child:    child,
		FK:       fk,
		Parent:   parent,
		PK:       pk,
		OnDelete: constraints.DeleteAction(onDelete),
	}}
}

// Check declares a row-level domain constraint: every inserted or updated
// row of table must satisfy the SQL predicate check.
func Check(name, table, check string) Constraint {
	return Constraint{inner: constraints.Domain{Name: name, Table: table, Check: check}}
}

// UniqueColumn declares that a column's non-NULL values must be unique.
func UniqueColumn(name, table, column string) Constraint {
	return Constraint{inner: constraints.Unique{Name: name, Table: table, Column: column}}
}

// MaintainAggregate keeps the two-column table target(group, total) equal
// to SELECT groupCol, agg(aggCol) FROM source GROUP BY groupCol — derived
// data maintained automatically by a production rule.
func MaintainAggregate(name, target, source, groupCol, agg, aggCol string) Constraint {
	return Constraint{inner: constraints.Aggregate{
		Name:     name,
		Target:   target,
		Source:   source,
		GroupCol: groupCol,
		Agg:      agg,
		AggCol:   aggCol,
	}}
}

// ForeignKeyComposite declares multi-column referential integrity:
// child.(fk...) → parent.(pk...). All-NULL keys mean "no reference";
// partially NULL keys are rejected.
func ForeignKeyComposite(name, child string, fk []string, parent string, pk []string, onDelete DeleteAction) Constraint {
	return Constraint{inner: constraints.CompositeForeignKey{
		Name:     name,
		Child:    child,
		FK:       fk,
		Parent:   parent,
		PK:       pk,
		OnDelete: constraints.DeleteAction(onDelete),
	}}
}

// UniqueColumns declares a multi-column unique key (rows with any NULL key
// column are exempt).
func UniqueColumns(name, table string, columns ...string) Constraint {
	return Constraint{inner: constraints.CompositeUnique{Name: name, Table: table, Columns: columns}}
}

// CompileConstraint returns the CREATE RULE statements a constraint
// compiles into (for inspection or manual editing).
func CompileConstraint(c Constraint) ([]string, error) {
	return c.inner.Compile()
}

// AddConstraint compiles the constraint and installs its rules, under the
// write mutex so no transaction runs against a half-installed constraint.
// Rule definitions are fsynced as they are logged, so there is no commit
// to wait for afterwards.
func (db *DB) AddConstraint(c Constraint) error {
	stmts, err := c.inner.Compile()
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, s := range stmts {
		if _, err := db.eng.Exec(s); err != nil {
			// Roll back already-installed rules of this constraint.
			for _, name := range c.inner.RuleNames() {
				db.eng.Exec("drop rule " + name) //nolint:errcheck
			}
			return fmt.Errorf("sopr: installing constraint: %w", wrapErr(err))
		}
	}
	return nil
}

// DropConstraint removes the rules of a previously added constraint,
// under the write mutex.
func (db *DB) DropConstraint(c Constraint) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var firstErr error
	for _, name := range c.inner.RuleNames() {
		if _, err := db.eng.Exec("drop rule " + name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
