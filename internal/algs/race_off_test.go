//go:build !race

package algs

const raceEnabled = false
