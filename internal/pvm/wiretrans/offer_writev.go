//go:build linux || darwin || dragonfly || freebsd || netbsd

package wiretrans

import (
	"syscall"
	"unsafe"
)

// The platforms above number writev(2) in package syscall. OpenBSD, since
// 7.5, takes system calls only through libc, so there, as elsewhere,
// sysWritev stays nil and no write is offered.
func init() { sysWritev = writev }

func writev(fd uintptr, iov []iovec) int {
	n, _, errno := syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&iov[0])), uintptr(len(iov)))
	if errno != 0 {
		return 0
	}
	return int(n)
}
