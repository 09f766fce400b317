//go:build race

package main

// raceEnabled reports a -race build, under which the daemon runs far
// below the open loop's fixed rate.
const raceEnabled = true
