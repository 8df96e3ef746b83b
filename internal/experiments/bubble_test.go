//go:build goexperiment.synctest

//go:debug asynctimerchan=0
package experiments

import (
	"os"
	"testing"
	"testing/synctest"
)

// TestMain runs the package's whole suite, unedited, inside one synctest
// bubble (GOEXPERIMENT=synctest go test ./internal/experiments): every
// cluster the tests build shapes its traffic on a fake clock, so a measured
// time is the design's and not the host's. DESIGN.md, "Time in tests".
func TestMain(m *testing.M) {
	var code int
	synctest.Run(func() { code = m.Run() })
	os.Exit(code)
}
