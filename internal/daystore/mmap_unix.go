//go:build unix

package daystore

import (
	"os"
	"syscall"
)

// mapFile maps the file at path read-only, its size read from the open
// descriptor, which is closed once the file is mapped; an empty file maps
// to nil.
func mapFile(path string) (b []byte, err error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, &os.PathError{Op: "open", Path: path, Err: err}
	}
	defer syscall.Close(fd)
	var st syscall.Stat_t
	if err = syscall.Fstat(fd, &st); err == nil && st.Size > 0 {
		b, err = syscall.Mmap(fd, 0, int(st.Size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	}
	if err != nil {
		return nil, &os.PathError{Op: "mmap", Path: path, Err: err}
	}
	return b, nil
}

// unmapFile releases a mapping mapFile made.
func unmapFile(b []byte) error {
	if b == nil {
		return nil
	}
	return syscall.Munmap(b)
}
