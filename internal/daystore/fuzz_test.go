package daystore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"dnsddos/internal/nsset"
)

// FuzzNewView holds newView to "error, never panic" on bytes a peer can
// send: the harness re-stamps both CRCs, so every mutation reaches the
// size arithmetic and column-bound checks, and an image that is accepted
// must then serve every read of every key row without panicking.
func FuzzNewView(f *testing.F) {
	for _, snap := range []nsset.Snapshot{
		{},
		randomAggregator(rand.New(rand.NewSource(42)), 8, 1).Snapshot(),
	} {
		image, _, err := EncodeDay(0, snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(image)
	}
	f.Add(strLenWrapImage())
	f.Add(strOffWrapImage())

	f.Fuzz(func(t *testing.T, image []byte) {
		if len(image) >= headerLen+trailerLen {
			image = restamp(bytes.Clone(image)) // the engine's bytes are read-only
		}
		v, err := newView("fuzz", 0, image, nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal %v is not ErrCorrupt", err)
			}
			return
		}
		for i := 0; i < v.NumKeys(); i++ {
			k := v.Key(i)
			v.Baseline(k)
			v.Window(k, 0)
			for _, m := range v.Windows(k) {
				v.Window(k, m.Window)
			}
		}
	})
}
