//go:build !unix

package daystore

import "os"

// mapFile falls back to reading the whole file on platforms without
// mmap support; views still behave identically, just without the
// demand-paged residency.
func mapFile(path string) ([]byte, error) { return os.ReadFile(path) }

// unmapFile has nothing to release: the file was read, not mapped.
func unmapFile([]byte) error { return nil }
