// Package atomicfile publishes a file so that a crash at any point leaves
// either the previous state or the complete new file, never a torn one.
// The checkpoint journal and the sealed day files share it: a journal
// record must never reference a day file a power loss can un-publish.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// Write writes data to dir/name via a synced temporary file
// (name.tmp-*), an atomic rename, and a directory fsync. The directory
// sync matters for exactly-once contracts built on top: rename alone
// makes the new name visible but not durable, so a power loss after the
// caller acknowledged the write could resurface the previous file.
func Write(dir, name string, data []byte) (err error) {
	f, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("creating temp for %s: %w", name, err)
	}
	tmp := f.Name()
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
	if err = os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("publishing %s: %w", name, err)
	}
	df, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("opening %s for sync: %w", dir, err)
	}
	defer df.Close()
	if err = df.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", dir, err)
	}
	return nil
}
