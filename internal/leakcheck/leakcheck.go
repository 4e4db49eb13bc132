// Package leakcheck fails a package's tests when they leave goroutines of
// this module running: every server, worker and engine a test starts must
// be stopped before the test returns.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and, if they passed, fails the test binary with the
// stacks of the goroutines running code of repro/internal that are still
// alive two seconds later. Call it from TestMain.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(2 * time.Second); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines still running in repro/internal after the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines polls the goroutine dump for up to wait until no
// goroutine but the caller's runs code of repro/internal, and returns the
// stacks of those still running then.
func leakedGoroutines(wait time.Duration) string {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				buf = buf[:n]
				break
			}
			buf = make([]byte, 2*len(buf))
		}
		var leaked []string
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "repro/internal/") && !strings.Contains(g, "leakedGoroutines(") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
