//go:build !race

package coretest

const RaceEnabled = false
