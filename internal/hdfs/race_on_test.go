//go:build race

package hdfs

// raceEnabled reports whether the race detector is compiled in; wall-clock
// latency bounds are advisory under its slowdown.
const raceEnabled = true
