package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// childAttr makes the kernel SIGKILL a child when the harness dies, so
// not even a crash of the harness leaves an ltreed behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// rssMB reads a process's resident set size (VmRSS) from /proc.
func rssMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// fsType names the filesystem holding dir. fsync on a memory-backed
// filesystem is free, so results taken there are flagged.
func fsType(dir string) (name string, fsyncReal bool) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", false
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs", false
	case 0x858458f6:
		return "ramfs", false
	case 0xef53:
		return "ext4", true
	case 0x58465342:
		return "xfs", true
	case 0x9123683e:
		return "btrfs", true
	case 0x794c7630:
		return "overlayfs", true
	case 0x2fc12fc1:
		return "zfs", true
	}
	return fmt.Sprintf("0x%x", uint32(st.Type)), true
}
