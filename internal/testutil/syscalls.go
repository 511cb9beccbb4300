package testutil

import (
	"os"
	"strconv"
	"strings"
)

// Syscalls returns the read and write system calls the process has made
// so far — syscr plus syscw of /proc/self/io: read, readv, write, writev
// and their kin on any descriptor, sockets included — and false where
// that file is absent. Reading the file costs a few calls of its own,
// which a delta over thousands of operations does not see.
func Syscalls() (int64, bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	var n int64
	found := 0
	for _, line := range strings.Split(string(b), "\n") {
		key, val, _ := strings.Cut(line, ": ")
		if key != "syscr" && key != "syscw" {
			continue
		}
		c, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return 0, false
		}
		n += c
		found++
	}
	return n, found == 2
}
