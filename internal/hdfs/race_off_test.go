//go:build !race

package hdfs

const raceEnabled = false
