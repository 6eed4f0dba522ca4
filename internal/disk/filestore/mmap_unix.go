//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package filestore

import (
	"fmt"
	"os"
	"syscall"

	"hipec/internal/hiperr"
)

// mapFile maps length bytes of f read-write, shared.
func mapFile(f *os.File, length int64) ([]byte, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(length),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		// A filesystem that refuses mmap (some network/overlay mounts)
		// reports ENODEV/ENOTSUP; the store degrades to pread/pwrite.
		if err == syscall.ENODEV || err == syscall.ENOTSUP || err == syscall.EOPNOTSUPP {
			return nil, errMapUnsupported
		}
		return nil, &hiperr.Error{Op: "filestore.map",
			Err: fmt.Errorf("%s (%d bytes): %v: %w", f.Name(), length, err, hiperr.ErrDiskIO)}
	}
	return data, nil
}

// unmapFile releases a mapFile mapping.
func unmapFile(data []byte) error {
	return syscall.Munmap(data)
}
