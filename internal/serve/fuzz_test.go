package serve

import (
	"bytes"
	"testing"
)

// FuzzRequest holds the request path to its contract on arbitrary bodies:
// decoding and building never panic, a built job's cache key is a pure
// function of the request, and any fault config Build accepts is valid for
// the job's machine. Seeds live in testdata/fuzz/FuzzRequest.
func FuzzRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		job, err := req.Build()
		if err != nil {
			return
		}
		again, err := req.Build()
		if err != nil {
			t.Fatalf("second Build of an accepted request failed: %v", err)
		}
		if job.Key != again.Key {
			t.Fatalf("Build is not deterministic:\n%s\n%s", job.Key, again.Key)
		}
		if err := job.Opt.Faults.Validate(job.Opt.Config.Nodes); err != nil {
			t.Fatalf("Build accepted an invalid fault config: %v", err)
		}
	})
}
