// Package atomicfile publishes a file so that a crash at any point leaves
// either the previous state or the complete new file, never a torn one.
// The sealed day files, the checkpoint header and the stream cursor share
// it: a journal record must never reference a day file a power loss can
// un-publish. A writer opens its directory once (OpenDir) and publishes
// and syncs through that handle; the checkpoint day log, which is
// appended rather than replaced, syncs it once, when the log is opened.
package atomicfile

import (
	"fmt"
	"os"
	"strings"
)

// Write's temporary name is the final name plus tempSuffix, opened with
// O_TRUNC: it relies on one writer per name at a time (a study's sweep
// workers always seal different days).
const (
	tempInfix  = ".tmp-"
	tempSuffix = tempInfix + "new"
)

// Leftover reports whether name is one of Write's temporary files and, if
// so, the name it would have published. Such a file outlives Write only
// when the writer was killed before its rename: it is never state, and a
// directory's owner clears it with the files it names.
func Leftover(name string) (final string, ok bool) {
	i := strings.LastIndex(name, tempInfix)
	if i <= 0 {
		return "", false
	}
	return name[:i], true
}

// Dir is a directory held open by its writer, safe for concurrent writes
// of different names.
type Dir struct {
	prefix string // the directory's path and a separator
	f      *os.File
}

// OpenDir creates the directory path if needed and opens it; the caller
// closes it.
func OpenDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	return &Dir{prefix: path + string(os.PathSeparator), f: f}, nil
}

// Write publishes data as name in d via a synced temporary file, an
// atomic rename, and a directory fsync. The directory sync matters for
// exactly-once contracts built on top: rename alone makes the new name
// visible but not durable, so a power loss after the caller acknowledged
// the write could resurface the previous file.
func (d *Dir) Write(name string, data []byte) (err error) {
	tmp := d.prefix + name + tempSuffix
	final := tmp[:len(tmp)-len(tempSuffix)]
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("creating temp for %s: %w", name, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return fmt.Errorf("writing %s: %w", name, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", name, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", name, err)
	}
	if err = os.Rename(tmp, final); err != nil {
		return fmt.Errorf("publishing %s: %w", name, err)
	}
	return d.Sync()
}

// Sync fsyncs the directory, making the names created or renamed in it
// durable.
func (d *Dir) Sync() error {
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", d.f.Name(), err)
	}
	return nil
}

// Close releases the directory handle.
func (d *Dir) Close() error { return d.f.Close() }
