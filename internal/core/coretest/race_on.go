//go:build race

package coretest

// RaceEnabled lets tests skip assertions on what pooled scratch saves: under
// the race detector sync.Pool drops a share of what it is given.
const RaceEnabled = true
