package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzRead holds Read to its contract on arbitrary bytes: it never panics,
// it succeeds exactly on whole 16-byte records, and a decoded trace survives
// Write and Read unchanged. Seeds live in testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Read(bytes.NewReader(b))
		if whole := len(b)%recordSize == 0; (err == nil) != whole {
			t.Fatalf("Read of %d bytes: err = %v", len(b), err)
		}
		if err != nil {
			return
		}
		if tr.Len() != len(b)/recordSize {
			t.Fatalf("Len = %d, want %d", tr.Len(), len(b)/recordSize)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write of a decoded trace: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read of a written trace: %v", err)
		}
		if !reflect.DeepEqual(again, tr) {
			t.Fatal("Read(Write(Read(b))) differs from Read(b)")
		}
	})
}
