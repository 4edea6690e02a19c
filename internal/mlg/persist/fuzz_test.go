package persist

// Fuzz target for the MLGP container. The seed corpus runs as ordinary
// cases under `go test ./...`; `go test -fuzz=FuzzSnapshotDecode` explores
// further.

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzSnapshotDecode: arbitrary bytes must never panic Decode, every error
// it returns must wrap ErrCorrupt, and every input it accepts must
// re-encode byte-identically, so nothing Decode lets through is lost or
// reinterpreted.
func FuzzSnapshotDecode(f *testing.F) {
	full := Encode(testSnap(42))
	incr := testSnap(45)
	incr.Kind, incr.BaseTick = KindIncremental, 42
	for _, valid := range [][]byte{full, Encode(incr)} {
		for n := 0; n <= len(valid); n++ {
			f.Add(valid[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if got := Encode(s); !bytes.Equal(got, data) {
			t.Fatalf("accepted input re-encodes differently:\ninput:     %x\nre-encode: %x", data, got)
		}
	})
}
