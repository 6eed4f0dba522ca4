//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package filestore

import "os"

// mapFile reports mmap unsupported on this platform; a mapped store runs
// pread/pwrite against the same slot layout.
func mapFile(_ *os.File, _ int64) ([]byte, error) {
	return nil, errMapUnsupported
}

// unmapFile is never reached without a mapping.
func unmapFile(_ []byte) error { return nil }
