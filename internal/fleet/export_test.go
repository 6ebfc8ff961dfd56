package fleet

import "testing"

// Fixture helpers for the external fleet_test package, whose tests drive the
// fleet through the service's HTTP server.

const (
	TestPoll = testPoll
	TestIdle = testIdle
)

// FixtureDirs returns the template run directories: a quiet baseline and a
// noisy, slower variant of the same job.
func FixtureDirs(t *testing.T) (quiet, noisy string) {
	fx := getFleetFixture(t)
	return fx.quietDir, fx.noisyDir
}

var (
	CopyRun       = copyRun
	StageRun      = stageRun
	GetJSON       = getJSON
	WaitSettledBy = waitSettledBy
)
