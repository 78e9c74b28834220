package sopr

import (
	"sopr/internal/engine"
	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
)

// Stmt is a prepared script: parsed once, executable many times. Rule
// processing is unaffected — each Exec of a prepared script runs the same
// transactions the textual form would.
type Stmt struct {
	db    *DB
	stmts []sqlast.Statement
}

// Prepare parses a script for repeated execution. Definition statements
// (CREATE TABLE / CREATE RULE / ...) are allowed but usually belong in a
// one-shot Exec; re-executing them fails with duplicate-definition errors.
// A syntax error is reported as *ParseError, like Exec.
func (db *DB) Prepare(src string) (*Stmt, error) {
	stmts, err := sqlparse.ParseStatements(src)
	if err != nil {
		return nil, wrapErr(err)
	}
	return &Stmt{db: db, stmts: stmts}, nil
}

// Exec runs the prepared script through the same write path as DB.Exec:
// serialized with other writers, and on a durable database acknowledged
// only once its commit record is durable.
func (s *Stmt) Exec() (*Result, error) {
	return s.db.write(func() (*engine.TxnResult, error) { return s.db.eng.ExecStatements(s.stmts) })
}

// QueryRow is a convenience for a prepared single-SELECT script: it
// executes and returns the first (only) result set.
func (s *Stmt) Query() (*Rows, error) {
	res, err := s.Exec()
	if err != nil {
		return nil, err
	}
	if len(res.Results) == 0 {
		return nil, nil
	}
	return res.Results[0], nil
}
