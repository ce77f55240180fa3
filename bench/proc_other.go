//go:build !linux

package main

import (
	"errors"
	"syscall"
)

func childAttr() *syscall.SysProcAttr { return nil }

func rssMB(int) (float64, error) { return 0, errors.New("bench: process RSS needs /proc (Linux)") }

func fsType(string) (string, bool) { return "unknown", false }
