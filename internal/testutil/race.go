package testutil

import "runtime/debug"

// RaceEnabled reports a test binary built with the race detector, read
// from the build settings the toolchain stamps into it (a build-tagged
// pair of files would not survive the analysis loader, which type-checks
// every file of a package whatever its tags). The detector allocates on
// the program's behalf, so allocation-counting tests skip themselves
// under it.
func RaceEnabled() bool {
	info, _ := debug.ReadBuildInfo()
	if info == nil {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
