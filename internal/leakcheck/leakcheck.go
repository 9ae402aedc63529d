// Package leakcheck fails a package's tests when goroutines started by
// this module's code outlive them. A goroutine that never reaches its
// exit — a worker blocked on a queue nobody closes, a log writer whose
// owner never calls Close — keeps its captures alive and keeps
// touching state its owner has finished with. Reading the go statement
// cannot tell whether that exit is reached; running the tests can.
// A package opts in with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main waits polls × poll = 5 s at most for stragglers to exit.
const (
	poll  = 10 * time.Millisecond
	polls = 500
)

// Main runs the package's tests. If they pass, it waits for every
// goroutine that module code created to exit; any still running after
// 5 s are printed with their stacks, and the test binary exits 1.
// Only goroutines whose creator is in this module count: the runtime,
// the testing package and the fuzzing engine start their own.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		leaked := moduleGoroutines()
		// Sleep rather than read the clock: the wait is bounded by a count.
		for i := 0; i < polls && len(leaked) > 0; i++ {
			time.Sleep(poll)
			leaked = moduleGoroutines()
		}
		if len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) started by module code still running after the tests:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// moduleGoroutines returns the stack of every goroutine whose
// "created by" frame is module code.
func moduleGoroutines() []string {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "\ncreated by statsat/") || strings.Contains(g, "\ncreated by statsat.") {
			out = append(out, g)
		}
	}
	return out
}
