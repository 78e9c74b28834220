package sopr

import (
	"io"
	"strings"
)

// Dump writes a SQL script recreating the database: schemas, data (before
// the rules, so reloading does not fire them), rule definitions, priorities
// and deactivations. Rules whose actions call external procedures are
// emitted but need the procedures registered before the script is loaded.
func (db *DB) Dump(w io.Writer) error { return db.eng.Dump(w) }

// DumpString is Dump into a string.
func (db *DB) DumpString() (string, error) {
	var b strings.Builder
	if err := db.Dump(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Load executes a dump script against this database through Exec's write
// path. Syntax errors are reported as *ParseError with their 1-based
// position, like Exec.
func (db *DB) Load(r io.Reader) error {
	src, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return db.LoadString(string(src))
}

// LoadString is Load from a string.
func (db *DB) LoadString(src string) error {
	_, err := db.Exec(src)
	return err
}
