package main

import "runtime/debug"

// raceEnabled reports a build with the race detector, whose slowdown
// would be measured as if it were the program's. It is read from the
// build settings the toolchain stamps into the binary.
var raceEnabled = func() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}()
