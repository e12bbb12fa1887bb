//go:build !race

package httpd

// raceEnabled reports whether the race detector instruments this build;
// wall-clock budgets skip under it (instrumentation slows the compile
// several-fold).
const raceEnabled = false
