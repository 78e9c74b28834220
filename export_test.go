package sopr

// WithFS lets the external test package run a durable database over an
// injected filesystem; tests that drive internal/repl, which imports this
// package, cannot live in package sopr.
var WithFS = withFS
