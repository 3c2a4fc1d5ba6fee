//go:build !linux

package main

import "time"

// threadCPU has no portable implementation; without it the speedometer
// records nothing and every speed factor is 1.
func threadCPU() (time.Duration, bool) { return 0, false }
